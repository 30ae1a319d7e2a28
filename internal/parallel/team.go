package parallel

import (
	"sync"
	"sync/atomic"
)

// maxTeamWorkers caps how many parked workers a team may ever hold. It also
// sizes the idle free-list channel, whose capacity must never be exceeded or
// a worker's re-enqueue would block forever.
const maxTeamWorkers = 1024

// Team is a persistent, reusable worker pool with OpenMP-style team
// semantics: a fixed set of goroutines parked on per-worker wake channels,
// woken only when a parallel region is dispatched, with the dispatching
// goroutine always participating as a worker itself. Compared to spawning
// goroutines per call, a team amortizes goroutine creation, stack
// allocation and scheduler warm-up across every SpMV, conversion and vector
// kernel in the process — which is exactly the per-call overhead the paper's
// T_spmv·N accounting says the runtime cannot afford to pay thousands of
// times per solve.
//
// Work is split into chunks claimed from a shared atomic counter, so a
// dispatch stays correct (and merely less parallel) when some workers are
// busy serving a concurrent dispatch: any chunk not picked up by a woken
// worker is executed by the dispatcher. That makes a single team safe to
// share between concurrently running solves — dispatches never block waiting
// for workers, so there is no deadlock and no goroutine explosion.
//
// Who runs a chunk is the scheduler's business: a worker is a goroutine, not
// a core, and nothing here places threads or remembers owners (DESIGN §13
// has the measurements that removed both, and the rule for bringing
// placement back).
//
// All dispatch methods are safe for concurrent use.
type Team struct {
	// idle is the free-list of parked workers, identified by their wake
	// channels. A worker's channel is in the list exactly when the worker is
	// parked (or about to park) on it.
	idle chan chan *teamJob

	size       atomic.Int32 // spawned workers (excludes the dispatcher)
	dispatches atomic.Int64 // parallel regions dispatched
	woken      atomic.Int64 // workers woken across all dispatches
	closed     atomic.Bool
}

// TeamStats is a snapshot of a team's activity counters.
type TeamStats struct {
	// Width is the team's parallel width: parked workers + the caller.
	Width int `json:"width"`
	// Dispatches counts parallel regions run through the team.
	Dispatches int64 `json:"dispatches"`
	// Woken counts workers woken across all dispatches; Woken/Dispatches
	// below Width-1 means dispatches overlapped (or the team outgrew
	// GOMAXPROCS).
	Woken int64 `json:"woken"`
}

// teamJob is one parallel region: a body plus a set of chunks claimed via an
// atomic counter by every participant (woken workers and the dispatcher).
type teamJob struct {
	// Exactly one of body and bodyIdx is set.
	body    func(lo, hi int)
	bodyIdx func(w, lo, hi int)

	// Chunks are either explicit ranges or arithmetic [i*chunk, i*chunk+chunk)∩[0,n).
	ranges   [][2]int
	n, chunk int

	total     int32
	next      atomic.Int32
	completed atomic.Int32
	done      chan struct{}
}

func (j *teamJob) bounds(i int) (int, int) {
	if j.ranges != nil {
		return j.ranges[i][0], j.ranges[i][1]
	}
	lo := i * j.chunk
	hi := lo + j.chunk
	if hi > j.n {
		hi = j.n
	}
	return lo, hi
}

// run claims and executes chunks until none remain. The participant that
// completes the last chunk closes done; the close is the happens-before edge
// that makes every body's writes visible to the dispatcher.
func (j *teamJob) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.total {
			return
		}
		lo, hi := j.bounds(int(i))
		if j.body != nil {
			j.body(lo, hi)
		} else {
			j.bodyIdx(int(i), lo, hi)
		}
		if j.completed.Add(1) == j.total {
			close(j.done)
		}
	}
}

// NewTeam creates a team of parallel width p: p-1 parked workers plus the
// dispatching goroutine. Width is clamped to [1, maxTeamWorkers+1].
func NewTeam(p int) *Team {
	t := &Team{idle: make(chan chan *teamJob, maxTeamWorkers)}
	t.grow(p - 1)
	return t
}

// grow spawns workers until the team holds target parked workers. It must
// not be called concurrently with itself (Default serializes growth under
// defaultTeamMu; NewTeam calls it before the team is shared).
func (t *Team) grow(target int) {
	if target > maxTeamWorkers {
		target = maxTeamWorkers
	}
	for int(t.size.Load()) < target {
		// Cap 1 so a dispatcher that popped this worker from idle can hand
		// it the job without blocking on the rendezvous.
		wake := make(chan *teamJob, 1)
		go t.worker(wake)
		t.size.Add(1)
		t.idle <- wake
	}
}

// worker parks on its wake channel, runs the jobs it is handed, and
// re-enters the free-list between jobs. It exits when Close closes the wake
// channel.
func (t *Team) worker(wake chan *teamJob) {
	for job := range wake {
		job.run()
		t.idle <- wake
	}
}

// Width reports the team's parallel width (parked workers + caller).
func (t *Team) Width() int { return int(t.size.Load()) + 1 }

// Stats returns a snapshot of the team's activity counters.
func (t *Team) Stats() TeamStats {
	return TeamStats{
		Width:      t.Width(),
		Dispatches: t.dispatches.Load(),
		Woken:      t.woken.Load(),
	}
}

// Close terminates the team's workers, waiting for any that are mid-job
// (a dispatch's chunk) to finish first: every worker returns to
// the free-list between jobs, so one blocking receive per worker reaches
// them all. Dispatches after Close run inline on the caller. Close is
// idempotent.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	for n := t.size.Load(); n > 0; n-- {
		close(<-t.idle)
	}
}

// dispatch wakes up to width-1 idle workers (fewer when the free-list runs
// dry — chunks not claimed by a worker fall to the caller), participates in
// the job, and waits for the last chunk to finish.
func (t *Team) dispatch(job *teamJob, width int) {
	t.dispatches.Add(1)
	woken := 0
wake:
	for ; woken < width-1; woken++ {
		select {
		case w := <-t.idle:
			w <- job
		default:
			break wake
		}
	}
	if woken > 0 {
		t.woken.Add(int64(woken))
	}
	job.run()
	<-job.done
}

// The three region shapes. Each takes the parallel width it is offered —
// the team's own for the methods, GOMAXPROCS for the package-level wrappers
// over Default — and holds the one gate for its shape: nothing to do, or a
// single chunk or participant, runs inline on the caller, in order, without
// touching the team.

func (t *Team) forThreshold(width, n, threshold int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 || n < threshold {
		body(0, n)
		return
	}
	chunk := (n + width - 1) / width
	parts := (n + chunk - 1) / chunk // >= 2: chunk < n once width >= 2
	t.dispatch(&teamJob{body: body, n: n, chunk: chunk, total: int32(parts), done: make(chan struct{})}, parts)
}

func (t *Team) forRanges(width int, ranges [][2]int, body func(lo, hi int)) {
	if len(ranges) <= 1 || width <= 1 {
		for _, r := range ranges {
			body(r[0], r[1])
		}
		return
	}
	job := &teamJob{body: body, ranges: ranges, total: int32(len(ranges)), done: make(chan struct{})}
	t.dispatch(job, min(width, len(ranges)))
}

func (t *Team) forRangesIndexed(width int, ranges [][2]int, body func(w, lo, hi int)) {
	if len(ranges) <= 1 || width <= 1 {
		for w, r := range ranges {
			body(w, r[0], r[1])
		}
		return
	}
	job := &teamJob{bodyIdx: body, ranges: ranges, total: int32(len(ranges)), done: make(chan struct{})}
	t.dispatch(job, min(width, len(ranges)))
}

// ForThreshold runs body over [0, n) on the team, inline below threshold. The
// parallel width is the team's width: an explicit team runs the region it
// was sized for even when GOMAXPROCS is lower (goroutines then time-slice),
// matching OpenMP team semantics; the package-level wrappers are the ones
// that gate on GOMAXPROCS.
func (t *Team) ForThreshold(n, threshold int, body func(lo, hi int)) {
	t.forThreshold(t.Width(), n, threshold, body)
}

// ForRanges runs body over the given precomputed [lo, hi) ranges on the
// team, claiming ranges dynamically so stragglers self-balance.
func (t *Team) ForRanges(ranges [][2]int, body func(lo, hi int)) {
	t.forRanges(t.Width(), ranges, body)
}

// ForRangesIndexed is ForRanges for bodies that need the range's index —
// typically to address per-range scratch state. Range w always runs with
// index w regardless of which worker claims it, so results indexed by w are
// deterministic.
func (t *Team) ForRangesIndexed(ranges [][2]int, body func(w, lo, hi int)) {
	t.forRangesIndexed(t.Width(), ranges, body)
}

// ---------------------------------------------------------------------------
// Package default team.

var (
	defaultTeam   atomic.Pointer[Team]
	defaultTeamMu sync.Mutex
)

// Default returns the package-wide team that For, ForThreshold, ForRanges
// and ForRangesIndexed dispatch through. It is created on first use sized to
// GOMAXPROCS and grown (never shrunk) if GOMAXPROCS rises later, so long-
// running services that retune GOMAXPROCS keep full parallel width. The
// default team is never closed.
func Default() *Team { return defaultFor(Workers()) }

// defaultFor is Default for a caller that has already read GOMAXPROCS (the
// read takes the scheduler's lock; the wrappers need the value anyway).
func defaultFor(p int) *Team {
	if t := defaultTeam.Load(); t != nil && t.Width() >= p {
		return t
	}
	defaultTeamMu.Lock()
	defer defaultTeamMu.Unlock()
	t := defaultTeam.Load()
	switch {
	case t == nil:
		t = NewTeam(p)
		defaultTeam.Store(t)
	case t.Width() < p:
		t.grow(p - 1)
	}
	return t
}

// DefaultStats reports the default team's counters without creating it: the
// zero TeamStats means no parallel region has run yet.
func DefaultStats() TeamStats {
	if t := defaultTeam.Load(); t != nil {
		return t.Stats()
	}
	return TeamStats{}
}
