package parallel

import (
	"runtime"
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
// Teams are topology-aware: workers are spread round-robin across the
// host's cache domains (Domains — sockets, or CCXs on chiplet CPUs) and
// parked on per-domain free-lists. A dispatch wakes workers domain by
// domain starting from a rotating cursor, so a region too narrow to need
// the whole machine lands compactly on one L3 domain instead of scattering
// across sockets. With OCS_PIN=1 each worker's OS thread is additionally
// bound to its domain's CPUs. On single-domain hosts (and this degrades
// gracefully when sysfs is unreadable) all of this collapses to the flat
// single-free-list behavior.
//
// All dispatch methods are safe for concurrent use. Close is not: it must
// only be called once no dispatches are in flight.
type Team struct {
	// idle holds one free-list of parked workers per cache domain,
	// identified by their wake channels. A worker's channel is in its
	// domain's list exactly when the worker is parked (or about to park)
	// on it.
	idle []chan chan *teamJob
	// cpus are the per-domain CPU lists workers pin to when pin is set.
	cpus [][]int
	pin  bool

	rr         atomic.Int32 // rotating first-domain cursor for compact wakes
	nextID     atomic.Int32 // worker id allocator (ids start at 1; 0 = dispatcher)
	size       atomic.Int32 // spawned workers (excludes the dispatcher)
	dispatches atomic.Int64 // parallel regions dispatched
	woken      atomic.Int64 // workers woken across all dispatches
	asyncJobs  atomic.Int64 // one-off background jobs started via Go
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
	// AsyncJobs counts one-off background jobs started via Go.
	AsyncJobs int64 `json:"async_jobs"`
}

// teamJob is one parallel region: a body plus a set of chunks claimed via an
// atomic counter by every participant (woken workers and the dispatcher).
// Affine jobs (aff != nil) additionally carry a per-chunk taken table so
// sticky reclaiming and dynamic stealing can race safely.
type teamJob struct {
	// Exactly one of body and bodyIdx is set.
	body    func(lo, hi int)
	bodyIdx func(w, lo, hi int)

	// Chunks are either explicit ranges or arithmetic [i*chunk, i*chunk+chunk)∩[0,n).
	ranges   [][2]int
	n, chunk int

	// aff/taken implement sticky dispatch; see Affinity.
	aff   *Affinity
	taken []atomic.Bool

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

// exec runs chunk i. The participant that completes the last chunk closes
// done; the close is the happens-before edge that makes every body's writes
// visible to the dispatcher.
func (j *teamJob) exec(i int) {
	lo, hi := j.bounds(i)
	if j.body != nil {
		j.body(lo, hi)
	} else {
		j.bodyIdx(i, lo, hi)
	}
	if j.completed.Add(1) == j.total {
		close(j.done)
	}
}

// runAs claims and executes chunks as participant self until none remain.
func (j *teamJob) runAs(self int32) {
	if j.aff != nil {
		j.runAffine(self)
		return
	}
	for {
		i := j.next.Add(1) - 1
		if i >= j.total {
			return
		}
		j.exec(int(i))
	}
}

// runAffine is the sticky claim protocol. Pass 1: reclaim the chunks this
// participant owned on the previous dispatch of the same region (CAS on
// taken arbitrates against thieves). Pass 2: drain the shared counter like
// a normal dispatch, skipping chunks already taken and recording this
// participant as the new owner of whatever it steals.
//
// Every chunk executes exactly once: the counter visits every index, and
// each index's taken CAS has exactly one winner — either its sticky owner
// in pass 1 or its counter visitor in pass 2.
func (j *teamJob) runAffine(self int32) {
	n := int(j.total)
	for i := 0; i < n; i++ {
		if j.aff.owner[i].Load() == self && j.taken[i].CompareAndSwap(false, true) {
			j.exec(i)
		}
	}
	for {
		i := int(j.next.Add(1) - 1)
		if i >= n {
			return
		}
		if !j.taken[i].CompareAndSwap(false, true) {
			continue
		}
		j.aff.owner[i].Store(self)
		j.exec(i)
	}
}

// NewTeam creates a team of parallel width p: p-1 parked workers plus the
// dispatching goroutine, spread across the host's detected cache domains.
// Width is clamped to [1, maxTeamWorkers+1].
func NewTeam(p int) *Team {
	return newTeam(p, domainCPULists(), PinningEnabled())
}

// newTeam is NewTeam with an explicit topology, so tests can fabricate
// multi-domain teams on single-domain hosts.
func newTeam(p int, domCPUs [][]int, pin bool) *Team {
	if len(domCPUs) == 0 {
		domCPUs = [][]int{nil}
	}
	t := &Team{
		idle: make([]chan chan *teamJob, len(domCPUs)),
		cpus: domCPUs,
		pin:  pin,
	}
	for d := range t.idle {
		t.idle[d] = make(chan chan *teamJob, maxTeamWorkers)
	}
	t.grow(p - 1)
	return t
}

// grow spawns workers until the team holds target parked workers, dealing
// them round-robin across domains. It must not be called concurrently with
// itself (Default serializes growth under defaultTeamMu; NewTeam calls it
// before the team is shared).
func (t *Team) grow(target int) {
	if target > maxTeamWorkers {
		target = maxTeamWorkers
	}
	for int(t.size.Load()) < target {
		// Cap 1 so a dispatcher that popped this worker from idle can hand
		// it the job without blocking on the rendezvous.
		wake := make(chan *teamJob, 1)
		id := t.nextID.Add(1)
		dom := int(id-1) % len(t.idle)
		go t.worker(wake, id, dom)
		t.size.Add(1)
		t.idle[dom] <- wake
	}
}

// worker parks on its wake channel, runs the jobs it is handed, and
// re-enters its domain's free-list between jobs. It exits when Close closes
// the wake channel.
func (t *Team) worker(wake chan *teamJob, id int32, dom int) {
	if t.pin {
		// Best-effort: an unpinnable worker (seccomp, cpuset) still works.
		_ = pinThread(t.cpus[dom])
	}
	for job := range wake {
		job.runAs(id)
		t.idle[dom] <- wake
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
		AsyncJobs:  t.asyncJobs.Load(),
	}
}

// Go runs fn once in the background and returns immediately. It prefers a
// parked team worker — reusing a warm goroutine whose stack and scheduler
// state every kernel already paid for — and falls back to a fresh goroutine
// when no worker is idle, so Go never blocks and never steals a worker from
// a parallel region that is about to dispatch. The asynchronous stage-2
// pipeline runs its feature-extraction + conversion job this way.
//
// fn must not itself call Close on this team. fn may dispatch parallel
// regions: a borrowed worker running fn participates in them like any
// dispatcher would.
func (t *Team) Go(fn func()) {
	t.asyncJobs.Add(1)
	job := &teamJob{
		body: func(int, int) { fn() },
		n:    1, chunk: 1, total: 1,
		done: make(chan struct{}),
	}
	for _, lst := range t.idle {
		select {
		case w := <-lst:
			w <- job
			return
		default:
		}
	}
	go job.runAs(0)
}

// Close terminates the team's workers. It must not be called concurrently
// with dispatches on the same team; dispatches after Close run inline on the
// caller. Close is idempotent.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	// Every worker eventually returns to its domain's free-list, so sweeping
	// the lists until size channels are collected reaches them all, parked
	// or mid-job.
	for n := t.size.Load(); n > 0; {
		collected := false
		for _, lst := range t.idle {
			select {
			case w := <-lst:
				close(w)
				n--
				collected = true
			default:
			}
		}
		if !collected {
			// A worker is mid-job; yield until it re-enqueues.
			runtime.Gosched()
		}
	}
}

// dispatch wakes up to width-1 idle workers (fewer when the free-lists run
// dry — chunks not claimed by a worker fall to the caller), participates in
// the job, and waits for the last chunk to finish. Workers are woken domain
// by domain starting from a rotating cursor, so a dispatch narrower than
// the machine lands compactly on as few cache domains as possible rather
// than taking one worker from each.
func (t *Team) dispatch(job *teamJob, width int) {
	t.dispatches.Add(1)
	woken := int64(0)
	need := width - 1
	ndom := len(t.idle)
	start := 0
	if ndom > 1 {
		start = int(uint32(t.rr.Add(1)-1) % uint32(ndom))
	}
	for d := 0; d < ndom && woken < int64(need); d++ {
		lst := t.idle[(start+d)%ndom]
	drain:
		for woken < int64(need) {
			select {
			case w := <-lst:
				w <- job
				woken++
			default:
				break drain
			}
		}
	}
	if woken > 0 {
		t.woken.Add(woken)
	}
	job.runAs(0)
	<-job.done
}

// ForRangesAffine is ForRanges with sticky worker→range affinity: aff
// remembers who ran each range last dispatch and the claim protocol prefers
// repeating that assignment (see Affinity). aff must have been created with
// NewAffinity(len(ranges)); a size mismatch (or nil aff) falls back to the
// plain dynamic dispatch.
func (t *Team) ForRangesAffine(aff *Affinity, ranges [][2]int, body func(lo, hi int)) {
	if aff == nil || aff.Len() != len(ranges) {
		t.ForRanges(ranges, body)
		return
	}
	switch len(ranges) {
	case 0:
		return
	case 1:
		body(ranges[0][0], ranges[0][1])
		return
	}
	job := &teamJob{
		body: body, ranges: ranges, total: int32(len(ranges)),
		aff: aff, taken: make([]atomic.Bool, len(ranges)),
		done: make(chan struct{}),
	}
	t.dispatch(job, len(ranges))
}

// parFor splits [0, n) into parts arithmetic chunks and runs body over them
// on the team. Callers guarantee n > 0 and 1 < parts <= n.
func (t *Team) parFor(n, parts int, body func(lo, hi int)) {
	chunk := (n + parts - 1) / parts
	parts = (n + chunk - 1) / chunk
	if parts <= 1 {
		body(0, n)
		return
	}
	job := &teamJob{body: body, n: n, chunk: chunk, total: int32(parts), done: make(chan struct{})}
	t.dispatch(job, parts)
}

// For runs body over [0, n) on the team, inline below MinParallelWork.
func (t *Team) For(n int, body func(lo, hi int)) {
	t.ForThreshold(n, MinParallelWork, body)
}

// ForThreshold is For with an explicit serial-fallback threshold. The
// parallel width is the team's width: an explicit team runs the region it
// was sized for even when GOMAXPROCS is lower (goroutines then time-slice),
// matching OpenMP team semantics; the package-level wrappers are the ones
// that gate on GOMAXPROCS.
func (t *Team) ForThreshold(n, threshold int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := t.Width()
	if p <= 1 || n < threshold {
		body(0, n)
		return
	}
	if p > n {
		p = n
	}
	t.parFor(n, p, body)
}

// ForRanges runs body over the given precomputed [lo, hi) ranges on the
// team, claiming ranges dynamically so stragglers self-balance.
func (t *Team) ForRanges(ranges [][2]int, body func(lo, hi int)) {
	switch len(ranges) {
	case 0:
		return
	case 1:
		body(ranges[0][0], ranges[0][1])
		return
	}
	job := &teamJob{body: body, ranges: ranges, total: int32(len(ranges)), done: make(chan struct{})}
	t.dispatch(job, len(ranges))
}

// ForRangesIndexed is ForRanges for bodies that need the range's index —
// typically to address per-range scratch state. Range w always runs with
// index w regardless of which worker claims it, so results indexed by w are
// deterministic.
func (t *Team) ForRangesIndexed(ranges [][2]int, body func(w, lo, hi int)) {
	switch len(ranges) {
	case 0:
		return
	case 1:
		body(0, ranges[0][0], ranges[0][1])
		return
	}
	job := &teamJob{bodyIdx: body, ranges: ranges, total: int32(len(ranges)), done: make(chan struct{})}
	t.dispatch(job, len(ranges))
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
func Default() *Team {
	p := runtime.GOMAXPROCS(0)
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
