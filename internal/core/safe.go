package core

// NewSafeAdaptive returns its argument: Adaptive is safe for concurrent use
// on its own. The name remains only because benchmark/ compiles against it
// and leaves with that module's next change (ROADMAP 10(d)).
func NewSafeAdaptive(ad *Adaptive) *Adaptive { return ad }

// Close does nothing: stage 2 runs inline inside RecordProgress, so a
// handle never has background work to abandon. The method remains only
// because benchmark/ compiles against it and leaves with that module's next
// change (ROADMAP 10(d)).
func (ad *Adaptive) Close() {}
