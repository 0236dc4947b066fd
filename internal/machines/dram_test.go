package machines

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ptime"
	"repro/internal/simmem"
)

// halving is the plain 26-halving bisection that bisect replaced and
// must reproduce bit for bit: the reference for the tests below.
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

// counted wraps search so that every call of its f adds one to *n.
func counted(search searcher, n *int) searcher {
	return func(lo, hi float64, f func(float64) float64, target float64) float64 {
		return search(lo, hi, func(x float64) float64 { *n++; return f(x) }, target)
	}
}

// maxCalls is bisect's worst case: the two end checks, the upper end's
// neighbour, two measurements per secant guess, one per replayed
// halving.
const maxCalls = 2 + 1 + 2*secantGuesses + halvings

// stepFunc is a nondecreasing step function of ptime.FromNS(x): it is
// vals[i] on [edges[i-1], edges[i]) picoseconds, vals[0] below edges[0]
// and vals[len(edges)] from its last edge on.
type stepFunc struct {
	edges []ptime.Duration
	vals  []float64
}

func (s stepFunc) at(x float64) float64 {
	q := ptime.FromNS(x)
	return s.vals[sort.Search(len(s.edges), func(i int) bool { return s.edges[i] > q })]
}

// jump is a single step from -2 to -1 at picosecond q.
func jump(q ptime.Duration) stepFunc {
	return stepFunc{edges: []ptime.Duration{q}, vals: []float64{-2, -1}}
}

// randomSteps draws n edges in [qlo, qhi] and nondecreasing values in
// [-10, -1], a third of the steps flat, so plateaus fall anywhere,
// including across the target.
func randomSteps(rng *rand.Rand, qlo, qhi ptime.Duration, n int) stepFunc {
	s := stepFunc{vals: []float64{-10}}
	for i := 0; i < n; i++ {
		s.edges = append(s.edges, qlo+ptime.Duration(rng.Int63n(int64(qhi-qlo)+1)))
	}
	sort.Slice(s.edges, func(i, j int) bool { return s.edges[i] < s.edges[j] })
	v := -10.0
	for range s.edges {
		if rng.Intn(3) != 0 {
			v = min(-1, v+rng.Float64()*9/float64(n)*2)
		}
		s.vals = append(s.vals, v)
	}
	return s
}

// streamShape is a measured stream's -bandwidth: 1 MB over a duration
// of a + n*max(issue, q) picoseconds, computed as measureStreamBW does.
func streamShape(a, n, issue ptime.Duration) func(float64) float64 {
	return func(x float64) float64 {
		d := a + n*max(issue, ptime.FromNS(x))
		return -(float64(1<<20) / (1 << 20) / d.Seconds())
	}
}

// TestBisectMatchesHalving proves bisect returns the plain bisection's
// float64 bits on nondecreasing functions of the picosecond count,
// within maxCalls calls of f, whatever the shape around the threshold,
// and that a stream-shaped measurement needs at most two guesses.
func TestBisectMatchesHalving(t *testing.T) {
	type tc struct {
		name   string
		lo, hi float64
		f      func(float64) float64
		target float64
		most   int // calls of f allowed; 0 means maxCalls
	}
	var cases []tc
	const lo, hi = 1e-3, 2e4 // ns, about a DRAM inversion's range
	qlo, qhi := ptime.FromNS(lo), ptime.FromNS(hi)

	// Single jumps: the secant on a flat-then-flat shape is poor.
	for _, q := range []ptime.Duration{qlo + 1, qlo + 2, qlo + 1000, (qlo + qhi) / 3, qhi - 1, qhi} {
		f := jump(q).at
		cases = append(cases,
			tc{name: "jump", lo: lo, hi: hi, f: f, target: -1.5},
			tc{name: "jump-onto-target", lo: lo, hi: hi, f: f, target: -1})
	}
	// The ends decide.
	cases = append(cases,
		tc{name: "lo-reaches", lo: lo, hi: hi, f: jump(qlo).at, target: -1.5, most: 1},
		tc{name: "lo-equals", lo: lo, hi: hi, f: jump(qlo).at, target: -1, most: 1},
		tc{name: "hi-below", lo: lo, hi: hi, f: jump(qhi + 1).at, target: -1.5, most: 2},
		tc{name: "hi-equals", lo: lo, hi: hi, f: jump(qhi).at, target: -1, most: 2},
		tc{name: "constant", lo: lo, hi: hi, f: func(float64) float64 { return -3 }, target: -3, most: 1})

	// Stream-shaped measurements: duration affine in the picoseconds
	// above the issue-time kink, thresholds spread across the range,
	// half of them exactly on a picosecond's value. The ends, the upper
	// neighbour and two guesses with their neighbours: at most 2+1+4.
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 400; i++ {
		n := ptime.Duration(1 << (10 + rng.Intn(8)))
		issue := ptime.Duration(rng.Int63n(int64(qhi / 4)))
		a := ptime.Duration(rng.Int63n(1e9))
		f := streamShape(a, n, issue)
		target := f(lo + rng.Float64()*(hi-lo))
		if i%2 == 1 {
			target *= 1 + 1e-9*rng.Float64()
		}
		cases = append(cases, tc{name: "stream", lo: lo, hi: hi, f: f, target: target, most: 2 + 1 + 2*secantGuesses})
	}
	// Random staircases, with the target on a step's value (a plateau
	// at the target) or between two values.
	for i := 0; i < 300; i++ {
		s := randomSteps(rng, qlo, qhi, 1+rng.Intn(40))
		target := s.vals[rng.Intn(len(s.vals))]
		if i%2 == 1 {
			target -= rng.Float64() * 0.3
		}
		cases = append(cases, tc{name: "steps", lo: lo, hi: hi, f: s.at, target: target})
	}
	// Narrow and odd ranges, so the halvings reach single picoseconds.
	for i := 0; i < 100; i++ {
		l := rng.Float64() * 50
		h := l + rng.Float64()*0.2
		s := randomSteps(rng, ptime.FromNS(l), ptime.FromNS(h), 1+rng.Intn(5))
		cases = append(cases, tc{name: "narrow", lo: l, hi: h, f: s.at, target: s.vals[rng.Intn(len(s.vals))] - 0.01})
	}

	for i, c := range cases {
		var nRef, n int
		want := counted(halving, &nRef)(c.lo, c.hi, c.f, c.target)
		got := counted(bisect, &n)(c.lo, c.hi, c.f, c.target)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("case %d (%s): bisect = %v (%#x), halving = %v (%#x)",
				i, c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		most := c.most
		if most == 0 {
			most = maxCalls
		}
		if n > most {
			t.Errorf("case %d (%s): %d calls of f, want at most %d", i, c.name, n, most)
		}
	}
}

// TestDRAMInversionMatchesReference proves the DRAM inversion exact on
// real stream measurements: every catalog profile and calibrate-style
// candidates (scaled targets, every line size of calibrate's grid, a
// halved and a doubled last-level cache) invert to the same FillNS and
// WritebackNS bits as the plain bisection, from at most a third of its
// measurements.
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

	var nRef, n int
	for _, p := range profiles {
		line := p.Caches[0].LineSize
		if line <= 0 {
			line = 32
		}
		want := calibrateDRAM(p, line, counted(halving, &nRef))
		got := calibrateDRAM(p, line, counted(bisect, &n))
		if math.Float64bits(got.FillNS) != math.Float64bits(want.FillNS) ||
			math.Float64bits(got.WritebackNS) != math.Float64bits(want.WritebackNS) {
			t.Errorf("%s: inverted %+v, reference %+v", p.Name, got, want)
		}
	}
	t.Logf("%d profiles: %d stream measurements, reference %d", len(profiles), n, nRef)
	if 3*n > nRef {
		t.Errorf("%d stream measurements, want at most a third of the reference's %d", n, nRef)
	}
}

// TestDRAMMemoIgnoresName proves a renamed twin of a profile reuses its
// DRAM inversion: the memo key holds only what calibrateDRAM reads.
func TestDRAMMemoIgnoresName(t *testing.T) {
	entries := func() int {
		n := 0
		dramCache.Range(func(any, any) bool { n++; return true })
		return n
	}
	p, _ := ByName("Linux/i686")
	p.ReadBW *= 1.0123 // an inversion no other test asks for
	before := entries()
	var dram []simmem.DRAMConfig
	for _, name := range []string{p.Name, p.Name + " twin"} {
		p.Name = name
		m, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		dram = append(dram, m.Hierarchy().Config().DRAM)
	}
	if got := entries() - before; got != 1 {
		t.Errorf("memo gained %d entries for a profile and its renamed twin, want 1", got)
	}
	if dram[0] != dram[1] {
		t.Errorf("twin DRAM %+v, original %+v", dram[1], dram[0])
	}
}

var dramSink simmem.DRAMConfig

// BenchmarkInvertDRAM times one machine's DRAM inversion, read and
// write target, calling calibrateDRAM directly so the per-process memo
// does not hide the work, and reports the stream measurements it took.
func BenchmarkInvertDRAM(b *testing.B) {
	for _, name := range []string{"Linux/i686", "Modern/server-128B"} {
		p, ok := Default().ByName(name)
		if !ok {
			b.Fatalf("no profile %q", name)
		}
		b.Run(strings.ReplaceAll(name, "/", "-"), func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				dramSink = calibrateDRAM(p, p.Caches[0].LineSize, counted(bisect, &n))
			}
			b.ReportMetric(float64(n)/float64(b.N), "measurements/op")
		})
	}
}
