package simmem

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// runGeoms are small hierarchies that put every first-level and TLB
// probe mode under the chase's same-line runs, with caches small
// enough that a short list evicts from every level: a direct-mapped, a
// set-associative and both fully-associative first levels (list mode,
// and a single set below fullyAssocMin), the same four TLB modes, no
// TLB, lines that straddle pages (a line size that is not a power of
// two, and pages smaller than a line), and no caches at all.
func runGeoms() []hierGeom {
	small := hierGeom{name: "small", caches: []CacheConfig{
		{Name: "L1", Size: 1 << 10, LineSize: 32, Assoc: 2, LatencyNS: 6},
		{Name: "L2", Size: 8 << 10, LineSize: 64, Assoc: 4, LatencyNS: 40},
	}, tlb: TLBConfig{Entries: 8, PageSize: 1024, Assoc: 2, MissNS: 90}}
	variant := func(name string, change func(*hierGeom)) hierGeom {
		g := small
		g.name = "small/" + name
		g.caches = slices.Clone(small.caches)
		change(&g)
		return g
	}
	return []hierGeom{
		small,
		variant("l1-direct", func(g *hierGeom) { g.caches[0].Assoc = 1 }),
		variant("l1-full", func(g *hierGeom) { g.caches[0].Assoc = 0 }),
		variant("l1-full-4way", func(g *hierGeom) { g.caches[0].Size, g.caches[0].Assoc = 128, 0 }),
		variant("tlb-direct", func(g *hierGeom) { g.tlb.Assoc = 1 }),
		variant("tlb-full", func(g *hierGeom) { g.tlb.Entries, g.tlb.Assoc = 16, 0 }),
		variant("tlb-full-4way", func(g *hierGeom) { g.tlb.Entries, g.tlb.Assoc = 4, 0 }),
		variant("no-tlb", func(g *hierGeom) { g.tlb = TLBConfig{} }),
		variant("line-48", func(g *hierGeom) {
			g.caches[0] = CacheConfig{Name: "L1", Size: 48 * 32, LineSize: 48, Assoc: 2, LatencyNS: 6}
			g.caches[1] = CacheConfig{Name: "L2", Size: 96 * 64, LineSize: 96, Assoc: 4, LatencyNS: 40}
		}),
		variant("page-below-line", func(g *hierGeom) { g.tlb.PageSize = 16 }),
		variant("no-caches", func(g *hierGeom) { g.caches = nil }),
	}
}

// TestChaseRunsMatchLoads checks the chase's same-line runs against
// the load they stand for: on every compiled profile's geometry and on
// runGeoms, a Chase.Walk twin and a twin that calls Load once per list
// address must agree after every call on the clock, every Stats
// counter but PassesSkipped, the chase position and the canonical
// cache/TLB state; with pass skipping off, on every cache's and the
// TLB's whole state, recency ticks included. Strides run from the word
// size to the line size, lists start mid-line and end mid-line, and
// walks stop and resume mid-line.
func TestChaseRunsMatchLoads(t *testing.T) {
	for _, g := range append(slices.Clone(profileGeoms), runGeoms()...) {
		for _, noMemo := range []bool{true, false} {
			name := g.name
			if !noMemo {
				name += "+memo"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				testChaseRuns(t, g, noMemo)
			})
		}
	}
}

func testChaseRuns(t *testing.T, g hierGeom, noMemo bool) {
	walker, loader := newMemoTwin(t, g, false, noMemo), newMemoTwin(t, g, false, true)
	h := walker.h
	word, line := int64(h.cfg.WordSize), h.chunk
	var strides []int64
	for _, s := range []int64{word, 2 * word, 3 * word, 5 * word, 7 * word, line / 2, line - word, line} {
		if s >= word && s <= line && !slices.Contains(strides, s) {
			strides = append(strides, s)
		}
	}
	// A list inside one line, then lists of a few lines up to twice the
	// first level (and the second), each ending mid-line.
	sizes := []int64{24, 6*line + 20}
	for _, c := range g.caches[:min(2, len(g.caches))] {
		sizes = append(sizes, min(2*c.Size, 32<<10)+20)
	}
	region := walker.h.Alloc(64<<10 + 64)
	if loader.h.Alloc(64<<10+64) != region {
		t.Fatal("twins allocated differently")
	}
	for _, size := range sizes {
		for _, stride := range strides {
			for _, start := range []uint64{0, 12} {
				walker.h.FlushAll()
				loader.h.FlushAll()
				ch := walker.h.NewChase(region+start, size, stride)
				lap := ch.Length()
				off := int64(0)
				for _, n := range []int64{1, 3, lap - 1, lap, 2*lap + 5, 7} {
					if n <= 0 {
						continue
					}
					ch.Walk(n)
					for range n {
						loader.h.Load(ch.base + uint64(off))
						if off += ch.stride; off >= ch.size {
							off = 0
						}
					}
					ctx := fmt.Sprintf("list %d+%d stride %d, walk %d", start, size, stride, n)
					if walker.clk.Now() != loader.clk.Now() {
						t.Fatalf("%s: clock %v, want %v", ctx, walker.clk.Now(), loader.clk.Now())
					}
					got, want := walker.h.Stats(), loader.h.Stats()
					got.PassesSkipped = 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: stats %+v, want %+v", ctx, got, want)
					}
					if ch.off != off {
						t.Fatalf("%s: chase at offset %d, want %d", ctx, ch.off, off)
					}
					if walker.h.digest() != loader.h.digest() {
						t.Fatalf("%s: canonical cache/TLB state diverged", ctx)
					}
					if noMemo && (!reflect.DeepEqual(walker.h.caches, loader.h.caches) ||
						!reflect.DeepEqual(walker.h.tlb, loader.h.tlb)) {
						t.Fatalf("%s: cache or TLB state diverged", ctx)
					}
				}
			}
		}
	}
}

// TestRaggedChaseIsCircular: a list that is not a whole number of
// strides wraps to its first element, as lmbench's own list does, so
// Length() steps are a lap back to offset 0 and every lap loads the
// same addresses.
func TestRaggedChaseIsCircular(t *testing.T) {
	h := newMemoTwin(t, profileGeoms[0], false, false).h
	ch := h.NewChase(h.Alloc(4096), 4096, 24)
	lap := ch.Length()
	if lap != 171 {
		t.Fatalf("Length() = %d, want 171", lap)
	}
	for i := int64(0); i < 2*lap; i++ {
		if want := i % lap * 24; ch.off != want {
			t.Fatalf("step %d at offset %d, want %d", i, ch.off, want)
		}
		ch.Walk(1)
	}
	// Enough laps in one walk to digest and then skip some of them.
	ch.Walk(lap * (h.lines/lap + 4))
	if ch.off != 0 {
		t.Fatalf("whole laps from offset 0 ended at offset %d", ch.off)
	}
	if h.Stats().PassesSkipped == 0 {
		t.Error("no lap of the ragged list was skipped")
	}
}
