package simmem

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestPassConvergesMidway checks the repeats that stop at a mark where
// they rejoin the pass before them (DESIGN.md §6c) against full
// simulation. On every compiled profile's geometry a memo-on and a
// memo-off twin run flushed repeats of a read stream, a copy, a kernel,
// a read loop and each chase variant, each over four times the caches,
// and after every call must agree on the clock, every Stats counter but
// PassesSkipped, the canonical state and the chase offsets, and the
// check pass of every kind must stop at a mark. A chase over half the
// last level, whose check lap cannot rejoin the cold lap before its end
// (the cold lap filled the level as it went), must prove its fixed
// point by the end digest instead.
func TestPassConvergesMidway(t *testing.T) {
	for _, g := range profileGeoms {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			testConvergence(t, g)
		})
	}
}

func testConvergence(t *testing.T, g hierGeom) {
	on, off := newMemoTwin(t, g, false, false), newMemoTwin(t, g, false, true)
	var caches int64
	for _, c := range g.caches {
		caches += c.Size
	}
	big := 4 * caches
	last := g.caches[len(g.caches)-1]
	word := int64(on.h.cfg.WordSize)
	var a, b, c, user uint64
	for _, tw := range []*memoTwin{on, off} {
		a, b, c, user = tw.h.Alloc(big), tw.h.Alloc(big), tw.h.Alloc(big), tw.h.Alloc(64<<10)
		list := tw.h.Alloc(big)
		tw.chases = []*Chase{
			tw.h.NewChase(list, big, int64(last.LineSize)),
			tw.h.NewChase(list, last.Size/2, word),
		}
	}
	const past, inside = 0, 1
	lap := on.chases[past].Length()
	check := func(ctx string) {
		t.Helper()
		got, want := on.h.Stats(), off.h.Stats()
		got.PassesSkipped = 0
		if on.clk.Now() != off.clk.Now() {
			t.Fatalf("%s: clock %v, want %v", ctx, on.clk.Now(), off.clk.Now())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stats %+v, want %+v", ctx, got, want)
		}
		for i := range on.chases {
			if on.chases[i].off != off.chases[i].off {
				t.Fatalf("%s: chase %d at offset %d, want %d", ctx, i, on.chases[i].off, off.chases[i].off)
			}
		}
		if on.h.digest() != off.h.digest() {
			t.Fatalf("%s: canonical cache/TLB state diverged", ctx)
		}
	}
	kinds := []memoCall{
		{"read", func(tw *memoTwin) { tw.h.StreamRead(a, big) }},
		{"copy", func(tw *memoTwin) { tw.h.StreamCopy(a, b, big) }},
		{"kernel", func(tw *memoTwin) { tw.h.StreamKernel(c, []uint64{a, b}, big, 2) }},
		{"readloop", func(tw *memoTwin) { tw.h.ReadLoop(a, user, big, 64<<10, 1500) }},
		{"walk", func(tw *memoTwin) { tw.chases[past].Walk(lap) }},
		{"walkdirty", func(tw *memoTwin) { tw.chases[past].WalkDirty(lap) }},
		{"walkwrite", func(tw *memoTwin) { tw.chases[past].WalkWrite(lap) }},
	}
	for _, k := range kinds {
		// The cold pass, the check pass that stops at a mark, and a
		// replayed pass.
		on.h.FlushAll()
		off.h.FlushAll()
		for i := 0; i < 3; i++ {
			k.do(on)
			k.do(off)
			check(fmt.Sprintf("%s call %d", k.kind, i))
			if i == 1 && on.h.memo.at < 0 {
				t.Errorf("the check %s pass did not stop at a mark", k.kind)
			}
		}
	}
	// A walk that ends mid-lap after a replayed lap.
	on.chases[past].Walk(lap + lap/3)
	off.chases[past].Walk(lap + lap/3)
	check("partial walk")

	on.h.FlushAll()
	off.h.FlushAll()
	walk := func(tw *memoTwin) { tw.chases[inside].Walk(tw.chases[inside].Length()) }
	walk(on)
	walk(off)
	check("cold lap inside the last level")
	if len(on.h.memo.marks) == 0 {
		t.Fatal("the cold lap inside the last level left no marks to compare")
	}
	walk(on)
	walk(off)
	check("check lap inside the last level")
	if on.h.memo.at >= 0 {
		t.Error("the check lap inside the last level rejoined the cold lap before its end")
	}
	skipped := on.h.Stats().PassesSkipped
	walk(on)
	walk(off)
	check("third lap inside the last level")
	if on.h.Stats().PassesSkipped == skipped {
		t.Error("the check lap inside the last level did not prove a fixed point")
	}
}

// TestSnapshotRoundTrip restores a hierarchy from another's canonical
// encoding, as a check pass stopped at a mark returns to its start
// state (DESIGN.md §6c), on every compiled profile's geometry and on
// runGeoms. After random loads, stores and streams on the original and
// different ones on the copy, the copy restored from the original's
// snapshot must have the original's digest, and 10,000 further random
// references must charge both the same time and the same Stats.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, g := range append(slices.Clone(profileGeoms), runGeoms()...) {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			testSnapshotRoundTrip(t, g)
		})
	}
}

func testSnapshotRoundTrip(t *testing.T, g hierGeom) {
	orig, cp := newMemoTwin(t, g, false, true), newMemoTwin(t, g, false, true)
	span := g.tlb.Entries * g.tlb.PageSize
	for _, c := range g.caches {
		span += int(c.Size)
	}
	span = 2*span + 64<<10
	var base uint64
	for _, tw := range []*memoTwin{orig, cp} {
		base = tw.h.Alloc(int64(span))
	}
	// refs makes n random references: loads and stores, half of them
	// into a hot 8 KB, and short streams.
	refs := func(tw *memoTwin, rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			a := base + uint64(rng.Intn(span))
			if rng.Intn(2) == 0 {
				a = base + uint64(rng.Intn(8<<10))
			}
			switch op := rng.Intn(20); {
			case op < 12:
				tw.h.Load(a)
			case op < 19:
				tw.h.Store(a)
			default:
				tw.h.StreamCopy(a, base+uint64(rng.Intn(span/2)), int64(rng.Intn(2048)))
			}
		}
	}
	refs(orig, rand.New(rand.NewSource(1)), 20000)
	refs(cp, rand.New(rand.NewSource(2)), 20000)
	snap := orig.h.snapshot()
	if sha256.Sum256(snap) != orig.h.digest() {
		t.Fatal("the snapshot is not the encoding the digest hashes")
	}
	cp.h.restore(snap)
	if cp.h.digest() != orig.h.digest() {
		t.Fatal("the restored copy's digest differs from the original's")
	}
	orig.h.ResetStats()
	cp.h.ResetStats()
	t0, t1 := orig.clk.Now(), cp.clk.Now()
	refs(orig, rand.New(rand.NewSource(3)), 10000)
	refs(cp, rand.New(rand.NewSource(3)), 10000)
	if got, want := cp.clk.Now()-t1, orig.clk.Now()-t0; got != want {
		t.Errorf("the restored copy took %v, the original %v", got, want)
	}
	if got, want := cp.h.Stats(), orig.h.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("the restored copy's stats %+v, the original's %+v", got, want)
	}
	if cp.h.digest() != orig.h.digest() {
		t.Error("the restored copy's state diverged from the original's")
	}
}
