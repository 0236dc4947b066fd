package obs

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Progress tracks a run's live state from its event stream: per-machine
// completion counts, what is in flight right now, and an ETA projected
// from the durations of the experiments already finished. It implements
// core.EventSink and backs the -serve endpoint's /progress page.
type Progress struct {
	mu       sync.Mutex
	start    time.Time
	order    []string
	machines map[string]*machineProgress
}

type machineProgress struct {
	planned  int
	done     int
	skipped  int
	failed   int
	replayed int
	cached   int
	retries  int
	quality  int
	finished bool
	running  map[string]time.Time
	totalDur time.Duration
	timed    int // completed attempts behind totalDur
}

// NewProgress returns a tracker; the run's elapsed time is measured
// from this call.
func NewProgress() *Progress {
	return &Progress{start: time.Now(), machines: map[string]*machineProgress{}}
}

// SetPlan declares how many experiment groups machine is expected to
// run, enabling the ETA projection. Unplanned machines still track
// counts; their ETA is simply absent.
func (p *Progress) SetPlan(machine string, experiments int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.get(machine).planned = experiments
}

func (p *Progress) get(machine string) *machineProgress {
	m, ok := p.machines[machine]
	if !ok {
		m = &machineProgress{running: map[string]time.Time{}}
		p.machines[machine] = m
		p.order = append(p.order, machine)
	}
	return m
}

// Event implements core.EventSink.
func (p *Progress) Event(e core.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.get(e.Machine)
	switch e.Kind {
	case core.MachineFinished:
		m.finished = true
	case core.ExperimentStarted:
		m.running[e.Experiment] = e.Time
	case core.ExperimentFinished:
		delete(m.running, e.Experiment)
		m.done++
		m.totalDur += e.Duration
		m.timed++
	case core.ExperimentRetried:
		delete(m.running, e.Experiment)
		m.retries++
	case core.ExperimentQuality:
		delete(m.running, e.Experiment)
		m.quality++
		m.totalDur += e.Duration
		m.timed++
	case core.ExperimentSkipped:
		delete(m.running, e.Experiment)
		m.skipped++
	case core.ExperimentFailed:
		delete(m.running, e.Experiment)
		m.failed++
	case core.ExperimentReplayed:
		m.replayed++
	case core.ExperimentCached:
		m.cached++
	}
}

// RunningExperiment is one in-flight experiment in a snapshot.
type RunningExperiment struct {
	Experiment string  `json:"experiment"`
	ForSeconds float64 `json:"for_seconds"`
}

// MachineSnapshot is one machine's progress in a snapshot.
type MachineSnapshot struct {
	Machine        string              `json:"machine"`
	Planned        int                 `json:"planned,omitempty"`
	Done           int                 `json:"done"`
	Skipped        int                 `json:"skipped,omitempty"`
	Failed         int                 `json:"failed,omitempty"`
	Replayed       int                 `json:"replayed,omitempty"`
	Cached         int                 `json:"cached,omitempty"`
	Retries        int                 `json:"retries,omitempty"`
	QualityRejects int                 `json:"quality_rejects,omitempty"`
	Finished       bool                `json:"finished,omitempty"`
	Running        []RunningExperiment `json:"running,omitempty"`
	// AvgExperimentSeconds is the mean duration of the attempts that
	// completed so far; ETASeconds projects it over the remaining plan.
	AvgExperimentSeconds float64 `json:"avg_experiment_seconds,omitempty"`
	ETASeconds           float64 `json:"eta_seconds,omitempty"`
}

// Snapshot is the /progress document.
type Snapshot struct {
	Time           time.Time         `json:"time"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	Planned        int               `json:"planned,omitempty"`
	Completed      int               `json:"completed"`
	Running        int               `json:"running"`
	ETASeconds     float64           `json:"eta_seconds,omitempty"`
	Machines       []MachineSnapshot `json:"machines"`
}

// Snapshot returns the current progress. Machines appear in
// first-event order, matching the executor's unit order.
func (p *Progress) Snapshot() Snapshot {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{Time: now, ElapsedSeconds: now.Sub(p.start).Seconds()}
	for _, name := range p.order {
		m := p.machines[name]
		ms := MachineSnapshot{
			Machine: name, Planned: m.planned,
			Done: m.done, Skipped: m.skipped, Failed: m.failed,
			Replayed: m.replayed, Cached: m.cached,
			Retries: m.retries, QualityRejects: m.quality,
			Finished: m.finished,
		}
		for exp, since := range m.running {
			ms.Running = append(ms.Running, RunningExperiment{
				Experiment: exp, ForSeconds: now.Sub(since).Seconds(),
			})
		}
		sort.Slice(ms.Running, func(a, b int) bool {
			return ms.Running[a].Experiment < ms.Running[b].Experiment
		})
		if m.timed > 0 {
			ms.AvgExperimentSeconds = (m.totalDur / time.Duration(m.timed)).Seconds()
		}
		completed := m.done + m.skipped + m.failed + m.replayed + m.cached
		if m.planned > 0 && ms.AvgExperimentSeconds > 0 && !m.finished {
			if rem := m.planned - completed; rem > 0 {
				ms.ETASeconds = float64(rem) * ms.AvgExperimentSeconds
			}
		}
		s.Planned += m.planned
		s.Completed += completed
		s.Running += len(ms.Running)
		if ms.ETASeconds > s.ETASeconds {
			// Machines run concurrently: the run's ETA is its slowest
			// machine's, not the sum.
			s.ETASeconds = ms.ETASeconds
		}
		s.Machines = append(s.Machines, ms)
	}
	return s
}
