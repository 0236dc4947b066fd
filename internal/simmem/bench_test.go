package simmem

import (
	"testing"

	"repro/internal/sim"
)

// benchHierarchy builds a hierarchy without *testing.T plumbing, for
// the micro-benchmarks pinning the simulator's per-access cost.
func benchHierarchy(b *testing.B, mutate func(*Config)) *Hierarchy {
	b.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 4})
	cfg := Config{
		Caches: []CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5, FillNS: 5},
			{Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 50, FillNS: 40},
		},
		DRAM: DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 100},
		TLB:  TLBConfig{Entries: 64, PageSize: 4 << 10, MissNS: 200},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := New(cpu, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkLoadL1Hit is the set-associative fast path: a re-loaded
// address answered by the L1 MRU-way hint.
func BenchmarkLoadL1Hit(b *testing.B) {
	h := benchHierarchy(b, nil)
	addr := h.Alloc(4096)
	h.Load(addr) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(addr)
	}
}

// BenchmarkLoadFullyAssocHit is the fully-associative fast path: a
// 64-way single-set L1 answers through the head check / tag index
// instead of a 64-way scan.
func BenchmarkLoadFullyAssocHit(b *testing.B) {
	h := benchHierarchy(b, func(cfg *Config) {
		cfg.Caches[0].Assoc = 64
		cfg.Caches[0].Size = 64 * 32
	})
	addr := h.Alloc(4096)
	h.Load(addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(addr)
	}
}

// BenchmarkChaseDRAM walks a memory-sized pointer chase — the Figure-1
// plateau workload: every load misses all levels, evicts, and charges
// DRAM latency. Pass skipping is off, so every load is simulated.
func BenchmarkChaseDRAM(b *testing.B) {
	h := benchHierarchy(b, nil)
	h.noMemo = true
	base := h.Alloc(4 << 20)
	ch := h.NewChase(base, 4<<20, 128)
	ch.Walk(ch.Length()) // warm: chase state past the caches
	b.ReportAllocs()
	b.ResetTimer()
	ch.Walk(int64(b.N))
}

// BenchmarkChaseSameLine walks the BenchmarkChaseDRAM list at stride 8
// over 32-byte lines, as Figure 1's small strides do: each line's first
// load misses every level and the three after it are charged as one
// run of first-level hits. Pass skipping is off; the cost is per load.
func BenchmarkChaseSameLine(b *testing.B) {
	h := benchHierarchy(b, nil)
	h.noMemo = true
	base := h.Alloc(4 << 20)
	ch := h.NewChase(base, 4<<20, 8)
	ch.Walk(ch.Length()) // warm: chase state past the caches
	b.ReportAllocs()
	b.ResetTimer()
	ch.Walk(int64(b.N))
}

// BenchmarkStreamReadResident streams over an L2-resident region: the
// page-hoisted TLB probe plus the L1/L2 hit paths. Pass skipping is
// off, so every pass is simulated.
func BenchmarkStreamReadResident(b *testing.B) {
	h := benchHierarchy(b, nil)
	h.noMemo = true
	const bytes = 128 << 10
	base := h.Alloc(bytes)
	h.StreamRead(base, bytes) // warm into L2
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamRead(base, bytes)
	}
}

// BenchmarkStreamKernel runs the STREAM Triad kernel (two sources) over
// an L1-resident region — a pass too short to be memoized, so each call
// is simulated. It pins the call at zero allocations.
func BenchmarkStreamKernel(b *testing.B) {
	h := benchHierarchy(b, nil)
	const bytes = 2 << 10
	dst, src1, src2 := h.Alloc(bytes), h.Alloc(bytes), h.Alloc(bytes)
	srcs := []uint64{src1, src2}
	h.StreamKernel(dst, srcs, bytes, 5) // warm
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamKernel(dst, srcs, bytes, 5)
	}
}

// BenchmarkChaseSteadyState walks whole laps of the BenchmarkChaseDRAM
// chase once its laps have reached their fixed point: each lap (one
// op) is charged from the pass memo instead of being simulated.
func BenchmarkChaseSteadyState(b *testing.B) {
	h := benchHierarchy(b, nil)
	base := h.Alloc(4 << 20)
	ch := h.NewChase(base, 4<<20, 128)
	lap := ch.Length()
	ch.Walk(4 * lap) // cold lap, confirming lap, then skipped laps
	if h.Stats().PassesSkipped == 0 {
		b.Fatal("chase laps did not reach a fixed point")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Walk(lap)
	}
}

// BenchmarkStreamCopySteadyState repeats a Table-2-sized copy once its
// passes have reached their fixed point: each call is charged from the
// pass memo.
func BenchmarkStreamCopySteadyState(b *testing.B) {
	h := benchHierarchy(b, nil)
	const bytes = 8 << 20
	src, dst := h.Alloc(bytes), h.Alloc(bytes)
	for i := 0; i < 4; i++ {
		h.StreamCopy(src, dst, bytes)
	}
	if h.Stats().PassesSkipped == 0 {
		b.Fatal("copy passes did not reach a fixed point")
	}
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamCopy(src, dst, bytes)
	}
}

// BenchmarkStreamCopyWord copies one 8-byte word into a kernel buffer
// and back, the StreamCopy pair of a pipe hop (Table 11) or of a
// context-switch ring hop: a pass far below the memo's gate, so each
// call is simulated. It pins the pair at zero allocations.
func BenchmarkStreamCopyWord(b *testing.B) {
	h := benchHierarchy(b, nil)
	user, kbuf := h.Alloc(4096), h.Alloc(4096)
	h.StreamCopy(user, kbuf, 8) // warm
	h.StreamCopy(kbuf, user, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamCopy(user, kbuf, 8)
		h.StreamCopy(kbuf, user, 8)
	}
}

// BenchmarkStreamCopyDRAM copies 1 MB, four times the L2, so that every
// chunk fills its source from DRAM and retires a dirty destination
// line: the copy loop behind Table 2's bcopy rows. Pass skipping is
// off, so every pass is simulated.
func BenchmarkStreamCopyDRAM(b *testing.B) {
	h := benchHierarchy(b, nil)
	h.noMemo = true
	const bytes = 1 << 20
	src, dst := h.Alloc(bytes), h.Alloc(bytes)
	h.StreamCopy(src, dst, bytes) // warm
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.StreamCopy(src, dst, bytes)
	}
}

// BenchmarkChaseConverge times how a Figure-1 point past the caches
// starts: a flush, the cold lap of a 4 MB stride-32 chase on the
// Linux/i686 geometry, and the check lap, the repeat simulated to prove
// that the laps have reached their fixed point.
func BenchmarkChaseConverge(b *testing.B) {
	h := benchHierarchy(b, func(cfg *Config) {
		cfg.Caches, cfg.TLB = profileGeoms[0].caches, profileGeoms[0].tlb
	})
	base := h.Alloc(4 << 20)
	ch := h.NewChase(base, 4<<20, 32)
	lap := ch.Length()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FlushAll()
		ch.Walk(lap)
		ch.Walk(lap)
	}
}

// BenchmarkStreamCopyConverge times a 4 MB copy called twice after a
// flush: the cold call, and the repeat simulated to prove that the
// calls have reached their fixed point.
func BenchmarkStreamCopyConverge(b *testing.B) {
	h := benchHierarchy(b, nil)
	const bytes = 4 << 20
	src, dst := h.Alloc(bytes), h.Alloc(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FlushAll()
		h.StreamCopy(src, dst, bytes)
		h.StreamCopy(src, dst, bytes)
	}
}
