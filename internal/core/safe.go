package core

// NewSafeAdaptive returns its argument: Adaptive is safe for concurrent use
// on its own. The name remains only because benchmark/ compiles against it
// and leaves with that module's next change (ROADMAP 6(b)).
func NewSafeAdaptive(ad *Adaptive) *Adaptive { return ad }
