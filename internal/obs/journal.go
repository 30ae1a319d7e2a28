package obs

import "sync"

// DefaultJournalCapacity bounds the default decision journal: decisions are
// rare (one per matrix handle lifetime), so a few hundred entries cover any
// realistic registry while keeping the ring's memory trivial.
const DefaultJournalCapacity = 256

// Journal is a bounded ring buffer of DecisionTraces. Appends are O(1) and
// evict the oldest entry once the capacity is reached; entries stay
// addressable by their monotonically increasing ID until evicted. All
// methods are safe for concurrent use — the journal is the only
// synchronization point between the selector goroutine writing ledger
// updates and HTTP handlers reading traces.
type Journal struct {
	mu     sync.Mutex
	cap    int
	nextID uint64
	buf    []DecisionTrace // ring storage, len == number held
	start  int             // index of the oldest entry
}

// NewJournal builds a journal holding at most capacity traces (<= 0 means
// DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{cap: capacity}
}

// Append stores a trace, assigns it the next ID, and returns that ID,
// evicting the oldest trace when full.
func (j *Journal) Append(t DecisionTrace) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextID++
	t.ID = j.nextID
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, t)
	} else {
		j.buf[j.start] = t
		j.start = (j.start + 1) % j.cap
	}
	return t.ID
}

// locate returns the ring index of id, or -1. Caller holds j.mu.
func (j *Journal) locate(id uint64) int {
	n := uint64(len(j.buf))
	if n == 0 || id == 0 || id > j.nextID || id+n <= j.nextID {
		return -1
	}
	// Entries held are IDs (nextID-n, nextID]; the oldest (ID nextID-n+1)
	// lives at start.
	offset := int(id - (j.nextID - n + 1))
	return (j.start + offset) % len(j.buf)
}

// Get returns a copy of the trace with the given ID, if it is still held.
func (j *Journal) Get(id uint64) (DecisionTrace, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := j.locate(id)
	if i < 0 {
		return DecisionTrace{}, false
	}
	return j.buf[i], true
}

// Update applies fn to the trace with the given ID under the journal lock,
// returning false when the trace has been evicted. It is how the selector
// streams ledger updates into a trace that readers may be snapshotting
// concurrently.
func (j *Journal) Update(id uint64, fn func(*DecisionTrace)) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := j.locate(id)
	if i < 0 {
		return false
	}
	fn(&j.buf[i])
	return true
}

// Recent returns copies of up to n traces, newest first (n <= 0 means all).
func (j *Journal) Recent(n int) []DecisionTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	held := len(j.buf)
	if n <= 0 || n > held {
		n = held
	}
	out := make([]DecisionTrace, 0, n)
	for k := 0; k < n; k++ {
		// Newest is at (start + held - 1) mod held's ring position.
		i := (j.start + held - 1 - k) % len(j.buf)
		out = append(out, j.buf[i])
	}
	return out
}

// Len reports how many traces the journal currently holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}
