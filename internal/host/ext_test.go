package host

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

func TestHostChaseVariants(t *testing.T) {
	m := newHost(t)
	mem := m.Mem()
	r, _ := mem.Alloc(256 << 10)
	for _, v := range []core.ChaseVariant{core.ChaseClean, core.ChaseDirty, core.ChaseWrite} {
		ch, err := mem.NewChaseVariant(r, 256<<10, 64, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if ch.Length() <= 0 {
			t.Errorf("%v: length %d", v, ch.Length())
		}
		if err := ch.Walk(10000); err != nil {
			t.Fatalf("%v walk: %v", v, err)
		}
	}
	if _, err := mem.NewChaseVariant(r, 256<<10, 64, core.ChaseVariant(9)); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestHostDirtyChaseStillChains(t *testing.T) {
	m := newHost(t)
	mem := m.Mem()
	r, _ := mem.Alloc(64 << 10)
	ch, err := mem.NewChaseVariant(r, 64<<10, 64, core.ChaseDirty)
	if err != nil {
		t.Fatal(err)
	}
	// One full lap must return to the start (the store-back must not
	// corrupt the chain).
	dc := ch.(*dirtyChase)
	if err := ch.Walk(ch.Length()); err != nil {
		t.Fatal(err)
	}
	if dc.cur != 0 {
		t.Errorf("dirty chase corrupted the chain: cur = %d", dc.cur)
	}
}

func TestHostPageChase(t *testing.T) {
	m := newHost(t)
	mem := m.Mem()
	if mem.PageSize() <= 0 {
		t.Fatal("bad page size")
	}
	ch, err := mem.NewPageChase(64)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Length() != 64 {
		t.Errorf("Length = %d, want 64", ch.Length())
	}
	// The chain must visit all pages: walking one lap from the start
	// returns to the start.
	hc := ch.(*hostChase)
	start := hc.cur
	if err := ch.Walk(64); err != nil {
		t.Fatal(err)
	}
	if hc.cur != start {
		t.Errorf("page chain is not a single cycle: started %d ended %d", start, hc.cur)
	}
	if _, err := mem.NewPageChase(0); err == nil {
		t.Error("zero pages should error")
	}
}

func TestHostStreamKernels(t *testing.T) {
	m := newHost(t)
	so := m.Mem()
	for _, k := range []core.StreamKind{core.StreamCopy, core.StreamScale, core.StreamAdd, core.StreamTriad} {
		if err := so.RunStreamKernel(k, 1<<20); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
	if err := so.RunStreamKernel(core.StreamCopy, 0); err == nil {
		t.Error("zero-size kernel should error")
	}
	if err := so.RunStreamKernel(core.StreamKind(9), 1024); err == nil {
		t.Error("unknown kernel should error")
	}
	// Verify Triad actually computed b + q*c = 1 + 3*2 = 7.
	mo := m.Mem().(*memOps)
	_ = so.RunStreamKernel(core.StreamTriad, 1024)
	if mo.streamA[0] != 7 {
		t.Errorf("triad a[0] = %v, want 7", mo.streamA[0])
	}
}

func TestHostCacheToCache(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs")
	}
	m := newHost(t)
	smp := m.OS()
	for i := 0; i < 100; i++ {
		if err := smp.CacheToCachePingPong(); err != nil {
			t.Fatal(err)
		}
	}
	if err := smp.CacheToCacheTransfer(64 << 10); err != nil {
		t.Fatal(err)
	}
	// Close must stop the spinning peer without hanging.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHostExtendedSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	m := newHost(t)
	s := &core.Suite{
		M: m, Opts: fastOpts(), Extended: true,
		Only: map[string]bool{"ext_stream": true, "ext_tlb": true},
	}
	resDB := &results.DB{}
	skipped, err := s.Run(context.Background(), resDB)
	if err != nil {
		t.Fatal(err)
	}
	_ = skipped
	if v, ok := resDB.Scalar("stream.triad", "host"); !ok || v < 100 {
		t.Errorf("stream.triad = %v, %v (want >= 100 MB/s on any modern host)", v, ok)
	}
	if _, ok := resDB.Get("lat_tlb", "host"); !ok {
		t.Error("missing lat_tlb series")
	}
}

func TestHostPhysicalMemory(t *testing.T) {
	m := newHost(t)
	bytes, err := m.OS().PhysicalMemoryBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes < 64<<20 {
		t.Errorf("MemTotal = %d, want >= 64MB on any host", bytes)
	}
	// And through the experiment.
	entries, err := core.ExtMemSize(context.Background(), m, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Attrs["method"] != "os" || entries[0].Scalar <= 0 {
		t.Errorf("entry = %+v", entries[0])
	}
}
