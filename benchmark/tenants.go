package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/server"
	"repro/internal/sparse"
)

// tenantBase is one of the four matrices every tenant registers a copy of.
type tenantBase struct {
	name     string
	a        *sparse.CSR // what the server holds after registration
	register []byte      // the registration body, generate spec or inline .mtx
	sub      string      // generate or mtx
	solve    []byte      // nil: spmv only
	id       string
	spmv     []vecCase
}

// tenantRate is the open loop's arrival rate in requests per second: about
// half of the 45 req/s at which this mix saturated two connections on the
// 2-core reference box (README.md has the measurement).
const tenantRate = 22.0

// tenantGap is how many scheduled operations separate a handle's
// registration from its first use and its last use from its deletion, so
// that no operation can race the lifecycle of the handle it names.
const tenantGap = 32

// newTenantBase serialises one base's registration and solve bodies. held is
// the matrix the server ends up holding, which is what replies are checked
// against.
func newTenantBase(reg server.RegisterRequest, held *sparse.CSR, solve *server.SolveRequest) (*tenantBase, error) {
	t := &tenantBase{name: reg.Name, a: held, sub: "mtx"}
	if reg.Generate != nil {
		t.sub = "generate"
	}
	var err error
	if t.register, err = json.Marshal(reg); err == nil && solve != nil {
		t.solve, err = json.Marshal(solve)
	}
	return t, err
}

// tenantBases builds the four base matrices: two the server generates from a
// spec, two uploaded as Matrix Market text.
func (b *bench) tenantBases(rng *rand.Rand) ([]*tenantBase, error) {
	scale, seed := b.cfg.scale, b.cfg.seed
	generated := func(name string, fam matgen.Family, size, deg int, solve *server.SolveRequest) (*tenantBase, error) {
		a, err := matgen.Generate(matgen.Spec{Family: fam, Size: size, Degree: deg, Seed: seed})
		if err != nil {
			return nil, err
		}
		spec := &server.GenerateSpec{Family: fam.String(), Size: size, Degree: deg, Seed: seed}
		return newTenantBase(server.RegisterRequest{Name: name, Generate: spec}, a, solve)
	}
	uploaded := func(name string, upload, held *sparse.CSR, transition bool, solve *server.SolveRequest) (*tenantBase, error) {
		var text strings.Builder
		if err := mmio.Write(&text, upload); err != nil {
			return nil, err
		}
		return newTenantBase(server.RegisterRequest{Name: name, MatrixMarket: text.String(), AsTransition: transition}, held, solve)
	}
	banded, err := matgen.Banded(scaled(30_000, scale), 9, rng)
	if err == nil {
		banded, err = matgen.MakeDominant(banded, 0.02)
	}
	if err != nil {
		return nil, err
	}
	n := scaled(30_000, scale)
	adj, err := matgen.PowerLaw(n, n, 8, 2.1, rng)
	if err != nil {
		return nil, err
	}
	transition, _, err := apps.BuildTransition(adj)
	if err != nil {
		return nil, err
	}
	var bases []*tenantBase
	for _, build := range []func() (*tenantBase, error){
		func() (*tenantBase, error) {
			return generated("stencil2d", matgen.FamStencil2D, scaled(32_400, scale), 0, &server.SolveRequest{App: "cg", Tol: 1e-4})
		},
		func() (*tenantBase, error) {
			return uploaded("banded", banded, banded, false, &server.SolveRequest{App: "bicgstab"})
		},
		func() (*tenantBase, error) {
			return generated("uniform", matgen.FamUniformRows, scaled(25_000, scale), 12, nil)
		},
		func() (*tenantBase, error) {
			return uploaded("powerlaw", adj, transition, true, &server.SolveRequest{App: "pagerank", Tol: 1e-10})
		},
	} {
		t, err := build()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			v, err := newVecCase(t.a, rng, 1)
			if err != nil {
				return nil, err
			}
			t.spmv = append(t.spmv, v)
		}
		bases = append(bases, t)
	}
	return bases, nil
}

// tenantSlot is one duplicate handle's lifecycle in the plan. ready is
// closed when its registration reply has delivered the server's ID.
type tenantSlot struct {
	base    int
	reg     int // index of the registering operation
	lastUse int
	solved  bool
	id      string
	ready   chan struct{}
}

func (s *tenantSlot) usableAt(i int) bool    { return s.reg+tenantGap <= i }
func (s *tenantSlot) deletableAt(i int) bool { return s.lastUse+tenantGap <= i }

// url resolves the handle's address at send time: the ID exists only once
// the registration, at least tenantGap operations earlier, has returned.
func (s *tenantSlot) url(root, suffix string) func() (string, error) {
	return func() (string, error) {
		select {
		case <-s.ready:
			return root + "/v1/matrices/" + s.id + suffix, nil
		case <-time.After(30 * time.Second):
			return "", fmt.Errorf("handle was never registered")
		}
	}
}

// registered is the registration reply's check: it must carry the new ID.
func (s *tenantSlot) registered(body []byte) error {
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
		return fmt.Errorf("registration reply carries no id: %v", err)
	}
	s.id = info.ID
	close(s.ready)
	return nil
}

// tenantPlan lays out n operations in the mix register 2 : spmv 5 : solve 2
// : delete 1. It is a pure function of the rng, and the lifecycle rules
// (tenantGap) are enforced here, so no planned operation can fail.
func tenantPlan(rng *rand.Rand, n int, bases []*tenantBase, root string) []*op {
	var (
		ops  = make([]*op, 0, n)
		live []*tenantSlot // oldest first
		regs int
	)
	// newest returns the most recently registered live duplicate that ok
	// accepts, nil when there is none.
	newest := func(ok func(*tenantSlot) bool) *tenantSlot {
		for j := len(live) - 1; j >= 0; j-- {
			if ok(live[j]) {
				return live[j]
			}
		}
		return nil
	}
	spmvOn := func(target *tenantSlot, base int) *op {
		v := bases[base].spmv[rng.Intn(len(bases[base].spmv))]
		o := v.op(opSpMV, root+"/v1/matrices/"+bases[base].id+"/spmv")
		if target != nil {
			o.url = target.url(root, "/spmv")
		}
		return o
	}
	// The mix is exact per block of ten and only the order is drawn, so
	// every seed sends the same number of each class: the slow classes own
	// the tail, and their count would otherwise move it from seed to seed.
	var block []int
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = rng.Perm(10)
		}
		k := block[0]
		block = block[1:]
		switch {
		case k < 2: // a duplicate of a base, generate and mtx bodies alternating
			s := &tenantSlot{base: regs % len(bases), reg: i, lastUse: i, ready: make(chan struct{})}
			regs++
			live = append(live, s)
			ops = append(ops, &op{kind: opRegister, sub: bases[s.base].sub, method: http.MethodPost,
				url: fixedURL(root + "/v1/matrices"), body: bases[s.base].register, always: true, verify: s.registered})
		case k < 7: // spmv, half on a base handle and half on a duplicate
			base := rng.Intn(len(bases))
			var target *tenantSlot
			if rng.Intn(2) == 0 {
				target = newest(func(s *tenantSlot) bool { return s.usableAt(i) })
			}
			if target != nil {
				base, target.lastUse = target.base, i
			}
			ops = append(ops, spmvOn(target, base))
		case k < 9: // solve, on a duplicate whose selector has not decided yet
			base := []int{0, 1, 3}[rng.Intn(3)]
			target := newest(func(s *tenantSlot) bool { return s.usableAt(i) && !s.solved && bases[s.base].solve != nil })
			url := fixedURL(root + "/v1/matrices/" + bases[base].id + "/solve")
			if target != nil {
				base, target.lastUse, target.solved = target.base, i, true
				url = target.url(root, "/solve")
			}
			ops = append(ops, &op{kind: opSolve, method: http.MethodPost, url: url,
				body: bases[base].solve, always: true, verify: verifySolve(true)})
		default: // delete the oldest duplicate nothing has touched lately
			j := 0
			for j < len(live) && !live[j].deletableAt(i) {
				j++
			}
			if j == len(live) { // nothing old enough yet: read instead
				ops = append(ops, spmvOn(nil, rng.Intn(len(bases))))
				continue
			}
			ops = append(ops, &op{kind: opDelete, method: http.MethodDelete, url: live[j].url(root, "")})
			live = append(live[:j:j], live[j+1:]...)
		}
	}
	return ops
}

// serveTenants is one ocsd used for writes beside reads, open loop.
func (b *bench) serveTenants() (*outcome, error) {
	out := b.newOutcome("serve_tenants")
	setup := time.Now()
	rng := rand.New(rand.NewSource(b.cfg.seed))
	bases, err := b.tenantBases(rng)
	if err != nil {
		return nil, err
	}
	var nnz int64
	for _, t := range bases {
		out.WorkingSetBytes += t.a.Bytes()
		nnz += int64(t.a.NNZ())
	}
	// Room for about twelve live handles of the average base size.
	srv, node, err := b.bootOCSD(server.Config{MaxRegistryNNZ: 3 * nnz})
	if err != nil {
		return nil, err
	}
	defer node.stop()
	cl := b.newClient(b.nproc)
	defer cl.close()
	for _, t := range bases {
		r, err := cl.call(http.MethodPost, node.url+"/v1/matrices", t.register, true)
		if err != nil {
			return nil, err
		}
		var info server.MatrixInfo
		if r.status/100 != 2 || json.Unmarshal(r.body, &info) != nil {
			return nil, fmt.Errorf("registering base %s: HTTP %d: %s", t.name, r.status, r.body)
		}
		if info.Fingerprint != t.a.Fingerprint() || info.ValueDigest != t.a.ValueDigest() {
			return nil, fmt.Errorf("base %s: server holds a different matrix than the local reference copy", t.name)
		}
		t.id = info.ID
	}
	n := int(tenantRate * b.cfg.seconds)
	ops := tenantPlan(rng, n, bases, node.url)
	warm := b.newOutcome("warm-up")
	for i, t := range bases {
		o := t.spmv[0].op(opSpMV, node.url+"/v1/matrices/"+t.id+"/spmv")
		if s := cl.exec(o, i*checkEvery, time.Time{}, warm); !s.ok {
			return nil, fmt.Errorf("warm-up request failed: %v", warm.Failures)
		}
	}
	setupS := b.endSetup(setup)

	p := cl.openLoop(b.nproc, tenantRate, ops, out)
	// About one read in six arrives to find both connections busy with a
	// registration or a solve, so /spmv p90 sits on the edge of the delayed
	// reads and swings with them (8-20% spread over ten seeds, one run in ten
	// at twice the ratio); p75 is inside the undelayed bulk and moves when the
	// delayed share passes a quarter.
	b.setServing(out, p, setupS, 75)
	out.Detail["rate_per_s"] = tenantRate
	if !b.cfg.traced {
		return out, nil
	}
	l := out.layers
	l.set("server.register_ms.generate", median(subLatencies(p.samples, opRegister, "generate")))
	l.set("server.register_ms.mtx", median(subLatencies(p.samples, opRegister, "mtx")))
	spmm, err := newVecCase(bases[2].a, rng, 4)
	if err != nil {
		return nil, err
	}
	return out, b.serverLayers(out, cl, srv, node, bases[2].id, bases[2].spmv[0], spmm, median(p.latencies(opSpMV)))
}
