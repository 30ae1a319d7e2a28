package parallel

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Domain describes one cache/memory scheduling domain: the set of CPUs that
// share a last-level cache on one physical package. On a dual-socket host
// each socket is (at least) one domain; on chiplet CPUs each CCX — a group
// of cores around one L3 slice — is its own domain even within a socket.
// Workers that stay inside a domain share the L3 working set (the x-vector
// window of an SpMV) instead of bouncing lines across the interconnect.
type Domain struct {
	// Package is the physical_package_id (socket) the domain belongs to.
	Package int
	// L3 is the id of the shared last-level cache, or -1 when sysfs does
	// not expose one (VMs, restricted containers) and the whole package is
	// treated as a single domain.
	L3 int
	// CPUs lists the logical CPUs in the domain, ascending.
	CPUs []int
}

var (
	topoOnce sync.Once
	topoDoms []Domain
)

// Domains returns the host's scheduling domains, detected once from sysfs
// (/sys/devices/system/cpu). Hosts where sysfs is absent or unreadable —
// non-Linux, sandboxes — degrade to a single domain holding every CPU, so
// callers never see an empty slice and topology-aware code degenerates to
// the flat behavior.
func Domains() []Domain {
	topoOnce.Do(func() { topoDoms = readDomains("/sys/devices/system/cpu") })
	return topoDoms
}

// readDomains groups logical CPUs 0..NumCPU-1 by (package, L3) from a sysfs
// root. Separated from Domains so tests can point it at a fabricated tree.
func readDomains(root string) []Domain {
	n := runtime.NumCPU()
	type key struct{ pkg, l3 int }
	groups := make(map[key][]int)
	for cpu := 0; cpu < n; cpu++ {
		base := fmt.Sprintf("%s/cpu%d", root, cpu)
		pkg := readSysfsInt(base+"/topology/physical_package_id", 0)
		l3 := readSysfsInt(base+"/cache/index3/id", -1)
		k := key{pkg, l3}
		groups[k] = append(groups[k], cpu)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].l3 < keys[j].l3
	})
	doms := make([]Domain, 0, len(keys))
	for _, k := range keys {
		cpus := groups[k]
		sort.Ints(cpus)
		doms = append(doms, Domain{Package: k.pkg, L3: k.l3, CPUs: cpus})
	}
	if len(doms) == 0 {
		doms = []Domain{{Package: 0, L3: -1, CPUs: []int{0}}}
	}
	return doms
}

func readSysfsInt(path string, def int) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return def
	}
	v, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return def
	}
	return v
}

// domainCPULists projects Domains() to per-domain CPU lists, the shape team
// construction consumes.
func domainCPULists() [][]int {
	doms := Domains()
	lists := make([][]int, len(doms))
	for i, d := range doms {
		lists[i] = d.CPUs
	}
	return lists
}

// PinningEnabled reports whether worker pinning was requested via OCS_PIN=1.
// Pinning binds each team worker's OS thread to its domain's CPUs —
// first-touch pages then stay local and the L3 grouping is enforced rather
// than suggested — but it is opt-in because a pinned process shares the
// machine badly.
func PinningEnabled() bool { return os.Getenv("OCS_PIN") == "1" }
