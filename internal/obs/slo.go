package obs

// Objective is one endpoint's service-level objective: a request that
// fails or answers later than LatencyTarget breaches it.
type Objective struct {
	// Endpoint names the request class ("spmv", "solve", ...).
	Endpoint string
	// LatencyTarget is the latency threshold in seconds.
	LatencyTarget float64
}
