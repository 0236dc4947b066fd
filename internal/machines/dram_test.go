package machines

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/simmem"
)

// halving is the plain 26-halving bisection, the reference's search.
func halving(lo, hi float64, f func(float64) float64, target float64) float64 {
	if f(lo) >= target {
		return lo
	}
	if f(hi) <= target {
		return hi
	}
	for i := 0; i < 26; i++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// measureStreamBW is the cost oracle: it builds a scratch hierarchy
// with the candidate DRAM timing and simulates the timed stream,
// returning its bandwidth in MB/s.
func measureStreamBW(p Profile, dram simmem.DRAMConfig, write bool) float64 {
	clk := &sim.Clock{}
	width := p.IssueWidth
	if width <= 0 {
		width = 2
	}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: p.MHz, IssueWidth: width})
	h, err := simmem.New(cpu, simmem.Config{Caches: p.Caches, DRAM: dram})
	if err != nil {
		return 0
	}
	var cacheTotal int64
	for _, c := range p.Caches {
		cacheTotal += c.Size
	}
	const span = 1 << 20
	base := h.Alloc(cacheTotal + span)
	if write {
		// Prime the caches with dirty data so the timed span evicts
		// at steady state.
		h.StreamWrite(base, cacheTotal)
		start := clk.Now()
		h.StreamWrite(base+uint64(cacheTotal), span)
		return float64(span) / (1 << 20) / (clk.Now() - start).Seconds()
	}
	start := clk.Now()
	h.StreamRead(base, span)
	return float64(span) / (1 << 20) / (clk.Now() - start).Seconds()
}

// referenceDRAM is the DRAM inversion as a plain bisection over
// simulated measurements, one stream simulation per candidate timing:
// what invertDRAM must return bit for bit.
func referenceDRAM(p Profile, line int) simmem.DRAMConfig {
	cfg := simmem.DRAMConfig{LatencyNS: p.MemLatNS}
	if cfg.LatencyNS <= 0 {
		cfg.LatencyNS = 300
	}
	naive := float64(line) / (1 << 20) * 1e9
	if p.ReadBW > 0 {
		cfg.FillNS = halving(1e-3, 4*naive/p.ReadBW+200, func(f float64) float64 {
			c := cfg
			c.FillNS = f
			c.WritebackNS = 1
			return -measureStreamBW(p, c, false)
		}, -p.ReadBW)
	}
	cfg.WritebackNS = 1
	if p.WriteBW > 0 {
		cfg.WritebackNS = halving(1e-3, 8*naive/p.WriteBW+200, func(w float64) float64 {
			c := cfg
			c.WritebackNS = w
			return -measureStreamBW(p, c, true)
		}, -p.WriteBW)
		if cfg.WritebackNS < 1 {
			cfg.WritebackNS = 1
		}
	}
	return cfg
}

// priceEntries counts the memoized stream simulations: each entry is
// simulated once.
func priceEntries() int {
	n := 0
	streamPrices.Range(func(any, any) bool { n++; return true })
	return n
}

// firstLine is the line size Build hands invertDRAM.
func firstLine(p Profile) int {
	if line := p.Caches[0].LineSize; line > 0 {
		return line
	}
	return 32
}

// TestDRAMInversionMatchesReference proves the priced DRAM inversion
// exact against simulation: every catalog profile and calibrate-style
// candidates (scaled targets, a missing read or write target, a slower
// and a faster clock, a narrower and a wider issue, every line size of
// calibrate's grid, a halved and a doubled last-level cache) invert to
// the same FillNS and WritebackNS bits as the plain bisection over
// simulated stream measurements, from at most two stream simulations
// per geometry.
func TestDRAMInversionMatchesReference(t *testing.T) {
	var profiles []Profile
	for _, e := range Default().Entries() {
		profiles = append(profiles, e.Profile)
	}
	for _, name := range []string{"Linux/Alpha", "HP 9000/735"} {
		base, ok := Default().ByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		vary := func(label string, edit func(p *Profile)) {
			p := base
			p.Caches = append([]simmem.CacheConfig(nil), base.Caches...)
			p.Name = name + " " + label
			edit(&p)
			profiles = append(profiles, p)
		}
		for _, s := range []float64{0.25, 0.7, 1.3, 4} {
			vary("read", func(p *Profile) { p.ReadBW *= s })
			vary("write", func(p *Profile) { p.WriteBW *= s })
			vary("lat", func(p *Profile) { p.MemLatNS *= s })
		}
		vary("no read", func(p *Profile) { p.ReadBW = 0 })
		vary("no write", func(p *Profile) { p.WriteBW = 0 })
		for _, s := range []float64{0.5, 2} {
			vary("mhz", func(p *Profile) { p.MHz *= s })
		}
		for _, w := range []int{1, 4} {
			vary("issue", func(p *Profile) { p.IssueWidth = w })
		}
		for _, line := range []int{16, 32, 64, 128, 256} { // calibrate's lineSizeGrid
			vary("line", func(p *Profile) {
				for i := range p.Caches {
					p.Caches[i].LineSize = line
				}
			})
		}
		for _, s := range []float64{0.5, 2} {
			vary("llc", func(p *Profile) { p.Caches[len(p.Caches)-1].Size = int64(float64(p.Caches[len(p.Caches)-1].Size) * s) })
		}
	}

	before := priceEntries()
	geometries := map[string]bool{}
	for _, p := range profiles {
		if p.IssueWidth <= 0 {
			p.IssueWidth = 2 // as Build defaults it
		}
		geometries[fmt.Sprintf("%g|%d|%v", p.MHz, p.IssueWidth, p.Caches)] = true
		want := referenceDRAM(p, firstLine(p))
		got, err := invertDRAM(p, firstLine(p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if math.Float64bits(got.FillNS) != math.Float64bits(want.FillNS) ||
			math.Float64bits(got.WritebackNS) != math.Float64bits(want.WritebackNS) {
			t.Errorf("%s: inverted %+v, reference %+v", p.Name, got, want)
		}
	}
	sims := priceEntries() - before
	t.Logf("%d profiles, %d geometries: %d stream simulations", len(profiles), len(geometries), sims)
	if sims > 2*len(geometries) {
		t.Errorf("%d stream simulations for %d geometries, want at most two each", sims, len(geometries))
	}
}

// TestDRAMMemoIgnoresName proves the stream-price memo is keyed on
// exactly what the stream simulations read: renamed twins of a profile,
// built at once, and candidates that move only a bandwidth or the DRAM
// latency simulate no new stream, while a new geometry simulates its
// two.
func TestDRAMMemoIgnoresName(t *testing.T) {
	dram := func(p Profile) (simmem.DRAMConfig, error) {
		m, err := Build(p)
		if err != nil {
			return simmem.DRAMConfig{}, err
		}
		return m.Hierarchy().Config().DRAM, nil
	}
	p, _ := ByName("Linux/i686")
	p.MHz *= 1.0123 // a geometry no other test asks for
	before := priceEntries()
	twins := make([]simmem.DRAMConfig, 4)
	var wg sync.WaitGroup
	for i := range twins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := p
			q.Name = fmt.Sprintf("%s twin %d", p.Name, i)
			var err error
			if twins[i], err = dram(q); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := priceEntries() - before; got != 2 {
		t.Fatalf("a new geometry simulated %d streams, want 2", got)
	}
	orig := twins[0]
	for i, got := range twins {
		if got != orig {
			t.Errorf("twin %d DRAM %+v, twin 0 %+v", i, got, orig)
		}
	}
	for _, edit := range []func(q *Profile){
		func(q *Profile) { q.ReadBW *= 1.3 },
		func(q *Profile) { q.WriteBW *= 0.7 },
		func(q *Profile) { q.MemLatNS *= 2 },
	} {
		q := p
		edit(&q)
		if got, err := dram(q); err != nil || got == orig {
			t.Errorf("candidate %+v inverted to %+v (%v), the original's DRAM", q, got, err)
		}
	}
	if got := priceEntries() - before; got != 2 {
		t.Errorf("three bandwidth or latency candidates simulated %d new streams, want 0", got-2)
	}
	q := p
	q.Caches = append([]simmem.CacheConfig(nil), p.Caches...)
	q.Caches[len(q.Caches)-1].Size *= 2
	if _, err := dram(q); err != nil {
		t.Fatal(err)
	}
	if got := priceEntries() - before; got != 4 {
		t.Errorf("a second geometry simulated %d streams, want 2", got-2)
	}
}

// sameBits reports whether two DRAM timings are equal bit for bit.
func sameBits(a, b simmem.DRAMConfig) bool {
	return math.Float64bits(a.LatencyNS) == math.Float64bits(b.LatencyNS) &&
		math.Float64bits(a.FillNS) == math.Float64bits(b.FillNS) &&
		math.Float64bits(a.WritebackNS) == math.Float64bits(b.WritebackNS)
}

// TestBuildWithMatchesBuild: DRAM derives the timing a Build machine
// carries, and BuildWith and Clone assemble a machine on a given timing
// without simulating a stream. Over every catalog profile and one
// without an issue width, DRAM(p) equals the Build(p) machine's timing
// bit for bit; BuildWith on p with its clock moved — a geometry new to
// the process — carries the timing it was given and adds no stream
// simulation, and so does a clone of that machine. The profile without
// an issue width must derive the timing of Build's default width of 2,
// which differs from the width-1 CPU a bare sim.CPUConfig would get.
func TestBuildWithMatchesBuild(t *testing.T) {
	var profiles []Profile
	for _, e := range Default().Entries() {
		profiles = append(profiles, e.Profile)
	}
	// SGI Indigo2's timing moves between issue widths 1 and 2.
	bare, ok := Default().ByName("SGI Indigo2")
	if !ok {
		t.Fatal("no profile SGI Indigo2")
	}
	bare.Name += " without issue width"
	bare.IssueWidth = 0
	profiles = append(profiles, bare)
	timing := func(m *Machine) simmem.DRAMConfig { return m.Hierarchy().Config().DRAM }
	for _, p := range profiles {
		want, err := DRAM(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		m, err := Build(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := timing(m); !sameBits(got, want) {
			t.Errorf("%s: Build's machine carries %+v, DRAM derived %+v", p.Name, got, want)
		}
		q := p
		q.MHz *= 1.0291 // a geometry no other test asks for
		before := priceEntries()
		shipped, err := BuildWith(q, want)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		clone, err := shipped.Clone()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if n := priceEntries() - before; n != 0 {
			t.Errorf("%s: BuildWith and Clone on a new geometry simulated %d streams, want 0", p.Name, n)
		}
		for label, m := range map[string]*Machine{"BuildWith": shipped, "its clone": clone.(*Machine)} {
			if got := timing(m); !sameBits(got, want) {
				t.Errorf("%s: %s carries %+v, want the timing it was given, %+v", p.Name, label, got, want)
			}
		}
	}
	widths := map[int]simmem.DRAMConfig{}
	for _, w := range []int{0, 1, 2} {
		p := bare
		p.IssueWidth = w
		d, err := DRAM(p)
		if err != nil {
			t.Fatal(err)
		}
		widths[w] = d
	}
	if !sameBits(widths[0], widths[2]) || sameBits(widths[0], widths[1]) {
		t.Errorf("DRAM without an issue width %+v, want width 2's %+v, not width 1's %+v", widths[0], widths[2], widths[1])
	}
}

var dramSink simmem.DRAMConfig

// BenchmarkInvertDRAM times one machine's DRAM inversion, read and
// write target, and reports the stream simulations it took: two for a
// geometry new to the process ("new", the memo emptied before each
// op), none for a memo hit ("memo"). "shipped" times what a fleet
// worker does instead: BuildWith on a derived timing, for a geometry
// new to the process, which simulates no stream.
func BenchmarkInvertDRAM(b *testing.B) {
	forget := func() {
		streamPrices.Range(func(k, _ any) bool { streamPrices.Delete(k); return true })
	}
	for _, name := range []string{"Linux/i686", "Modern/server-128B"} {
		p, ok := Default().ByName(name)
		if !ok {
			b.Fatalf("no profile %q", name)
		}
		invert := func(b *testing.B) {
			var err error
			if dramSink, err = invertDRAM(p, firstLine(p)); err != nil {
				b.Fatal(err)
			}
		}
		name = strings.ReplaceAll(name, "/", "-")
		b.Run(name+"/new", func(b *testing.B) {
			forget()
			sims := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sims += priceEntries()
				forget()
				b.StartTimer()
				invert(b)
			}
			sims += priceEntries()
			b.ReportMetric(float64(sims)/float64(b.N), "simulations/op")
		})
		b.Run(name+"/memo", func(b *testing.B) {
			invert(b)
			before := priceEntries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				invert(b)
			}
			b.ReportMetric(float64(priceEntries()-before)/float64(b.N), "simulations/op")
		})
		b.Run(name+"/shipped", func(b *testing.B) {
			dram, err := DRAM(p)
			if err != nil {
				b.Fatal(err)
			}
			forget()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildWith(p, dram); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(priceEntries())/float64(b.N), "simulations/op")
		})
	}
}
