package simmem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// randomLevel draws one cache level of the given kind: direct-mapped,
// set-associative, fully associative (one set of at least
// fullyAssocMin ways) or set-associative over a set count that is not a
// power of two.
func randomLevel(rng *rand.Rand, name, kind string) CacheConfig {
	line := 16 << rng.Intn(5) // 16..256
	var assoc, sets int
	switch kind {
	case "direct":
		assoc, sets = 1, 4<<rng.Intn(7)
	case "assoc":
		assoc, sets = 2<<rng.Intn(2), 2<<rng.Intn(7)
	case "full":
		assoc, sets = fullyAssocMin<<rng.Intn(4), 1
	default: // "odd"
		assoc, sets = 1+rng.Intn(3), []int{3, 5, 6, 12, 24, 48, 96}[rng.Intn(7)]
	}
	c := CacheConfig{
		Name:      name,
		Size:      int64(line * assoc * sets),
		LineSize:  line,
		Assoc:     assoc,
		LatencyNS: 1 + rng.Float64()*60,
	}
	if kind == "full" && rng.Intn(2) == 0 {
		c.Assoc = 0 // fully associative by default
	}
	if rng.Intn(2) == 0 {
		c.FillNS = rng.Float64() * 40
	}
	return c
}

// priceGeom is one random hierarchy for TestStreamPriceMatchesSimulation.
type priceGeom struct {
	cpu    sim.CPUConfig
	caches []CacheConfig
	tlb    TLBConfig
}

func randomPriceGeom(rng *rand.Rand, kind string) priceGeom {
	g := priceGeom{cpu: sim.CPUConfig{MHz: 20 + rng.Float64()*480, IssueWidth: 1 + rng.Intn(4)}}
	kinds := []string{"direct", "assoc", "full", "odd"}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		if i == 0 {
			k = kind // every kind leads at least one hierarchy
		}
		g.caches = append(g.caches, randomLevel(rng, fmt.Sprintf("L%d", i+1), k))
	}
	if rng.Intn(2) == 0 {
		g.tlb = TLBConfig{Entries: 8 << rng.Intn(3), PageSize: 4096 << rng.Intn(2), Assoc: rng.Intn(3), MissNS: rng.Float64() * 200}
	}
	return g
}

// randomDRAM draws a DRAM timing around the stream's per-chunk issue
// time: below it (fills hide behind issue), on it, above it, with
// FillNS and WritebackNS left 0 for DRAMConfig's fallbacks, or the
// least timing New accepts.
func randomDRAM(rng *rand.Rand, issue ptime.Duration) DRAMConfig {
	ns := issue.Nanoseconds()
	d := DRAMConfig{LatencyNS: rng.Float64() * 4 * ns}
	switch rng.Intn(5) {
	case 0:
		d.FillNS = rng.Float64() * ns
	case 1:
		d.FillNS = ns
	case 2:
		d.FillNS = ns * (1 + 3*rng.Float64())
	case 3:
		d.FillNS = 0 // falls back to LatencyNS
	default:
		d.LatencyNS, d.FillNS = 1e-3, 0 // a one-picosecond DRAM fill
	}
	if rng.Intn(4) != 0 {
		d.WritebackNS = rng.Float64() * 4 * ns // else falls back to fill()
	}
	return d
}

// streamOn builds g with dram, primes it with dirty lines over the
// whole cache when write is set, and returns it with the timed
// stream's address.
func streamOn(t *testing.T, g priceGeom, dram DRAMConfig, write bool, span int64) (*Hierarchy, uint64) {
	t.Helper()
	h, err := New(sim.NewCPU(&sim.Clock{}, g.cpu), Config{Caches: g.caches, TLB: g.tlb, DRAM: dram})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range g.caches {
		total += c.Size
	}
	base := h.Alloc(total + span)
	if write {
		h.StreamWrite(base, total)
		base += uint64(total)
	}
	return h, base
}

// TestStreamPriceMatchesSimulation: a stream priced once under one DRAM
// timing prices the same stream under any other timing bit for bit.
// Over random hierarchies — direct-mapped, set-associative, fully
// associative and odd-set-count levels, one to three of them, lines of
// 16 to 256 bytes, with and without a TLB — a cold read stream and a
// write stream after dirty priming are priced, and the price at a second
// timing (below, on and above the issue time, and 0 fill and writeback
// times) must equal the clock delta of StreamRead or StreamWrite on a
// hierarchy built with that timing, with the same DRAM fills,
// writebacks and final cache state.
func TestStreamPriceMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	kinds := []string{"direct", "assoc", "full", "odd"}
	// seen counts the priced terms the cases exercised, so that the
	// property cannot hold vacuously.
	seen := map[string]int{}
	for i := 0; i < 160; i++ {
		g := randomPriceGeom(rng, kinds[i%len(kinds)])
		write := i%2 == 1
		span := int64(16<<10) << rng.Intn(5)
		h0, addr0 := streamOn(t, g, DRAMConfig{LatencyNS: rng.Float64() * 500}, write, span)
		price, err := h0.PriceStream(addr0, span, write)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			dram := randomDRAM(rng, price.Issue)
			h, addr := streamOn(t, g, dram, write, span)
			before, start := h.Stats(), h.clk.Now()
			if write {
				h.StreamWrite(addr, span)
			} else {
				h.StreamRead(addr, span)
			}
			after := h.Stats()
			ctx := fmt.Sprintf("case %d/%d (write=%v, %+v, %+v, %+v)", i, j, write, g.caches, g.tlb, dram)
			if got, want := price.At(dram), h.clk.Now()-start; got != want {
				t.Fatalf("%s: priced %d ps, simulated %d ps (price %+v)", ctx, got, want, price)
			}
			if fills, wbs := after.MemAccesses-before.MemAccesses, after.Writebacks-before.Writebacks; fills != price.Fills || wbs != price.Writebacks {
				t.Fatalf("%s: simulated %d fills and %d writebacks, priced %d and %d", ctx, fills, wbs, price.Fills, price.Writebacks)
			}
			if h.digest() != h0.digest() {
				t.Fatalf("%s: pricing left a different cache state than the stream", ctx)
			}
			if price.Fills > 0 {
				switch fill := ptime.FromNS(dram.FillNS); {
				case dram.FillNS == 0:
					seen["fill fallback"]++
				case fill < price.Issue:
					seen["fill below issue"]++
				case fill > price.Issue:
					seen["fill above issue"]++
				}
			}
			if price.Writebacks > 0 {
				seen["writebacks"]++
				if dram.WritebackNS == 0 {
					seen["writeback fallback"]++
				}
			}
		}
	}
	for _, term := range []string{"fill fallback", "fill below issue", "fill above issue", "writebacks", "writeback fallback"} {
		if seen[term] == 0 {
			t.Errorf("no case priced %s", term)
		}
	}
	t.Logf("priced terms: %v", seen)
}

// TestPriceStreamRefusesBypass: NoWriteAllocate stores and HWCopy
// block moves put the writeback inside the issue overlap, so neither
// hierarchy is priced, for reads or writes.
func TestPriceStreamRefusesBypass(t *testing.T) {
	caches := []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 10}}
	dram := DRAMConfig{LatencyNS: 100}
	for _, cfg := range []Config{
		{Caches: caches, DRAM: dram, NoWriteAllocate: true},
		{Caches: caches, DRAM: dram, HWCopy: true},
	} {
		h, err := New(sim.NewCPU(&sim.Clock{}, sim.CPUConfig{MHz: 100}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, write := range []bool{false, true} {
			if _, err := h.PriceStream(h.Alloc(1<<16), 1<<16, write); err == nil {
				t.Errorf("NoWriteAllocate=%v HWCopy=%v write=%v: priced", cfg.NoWriteAllocate, cfg.HWCopy, write)
			}
		}
		if now := h.clk.Now(); now != 0 {
			t.Errorf("a refused price charged %d ps", now)
		}
	}
}
