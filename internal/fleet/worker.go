package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// WorkerEnv is the sentinel environment variable that turns a re-exec
// of the current binary into a fleet worker serving the coordinator on
// stdin/stdout. The coordinator sets it when spawning local workers;
// MaybeWorker — reached through lmbench.MaybeChild, which every binary
// using the suite already calls first — detects it before main gets
// anywhere near flag parsing.
const WorkerEnv = "LMBENCH_GO_FLEET_WORKER"

// MaybeWorker turns the process into a fleet worker when WorkerEnv is
// set: it serves work units on stdin/stdout until the coordinator
// closes the pipe, then exits. It must run before the host backend's
// child check has any side effects — in practice both are reached
// through lmbench.MaybeChild, which checks the fork-child sentinel
// first (fork children of a worker inherit WorkerEnv too and must still
// exit immediately).
func MaybeWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := work(context.Background(), rpcx.NewSession(os.Stdin, os.Stdout)); err != nil {
		fmt.Fprintln(os.Stderr, "lmbench fleet worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// heartbeatInterval is how often a worker pings the coordinator while
// executing a unit, so the coordinator's peer timeout measures silence,
// not measurement duration.
const heartbeatInterval = 5 * time.Second

// work serves one coordinator session: unit frames arrive on s,
// events stream back as the suite runs, and one result frame answers
// each unit. It returns nil when the coordinator closes the stream and
// an error on a protocol or I/O failure. Machines are built fresh from
// their profiles, on the DRAM timing their unit frame ships, and cached
// per name; the suite resets them before every attempt, so a reused
// machine is indistinguishable from a new one (core.Resetter) and unit
// results match a serial run exactly.
// Under the worker daemon (ServeWith) s is busy only while it executes
// a unit: when the daemon drains, the session finishes the unit it is
// executing (if any) and exits cleanly instead of waiting for the next
// one.
func work(ctx context.Context, s *rpcx.Session) error {
	cache := map[string]core.Machine{}
	for {
		s.SetBusy(false)
		if s.Draining() {
			return nil
		}
		var m wireMsg
		err := s.Recv(&m)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if s.Draining() {
				// The daemon cut an idle session loose; not a failure.
				return nil
			}
			return err
		}
		if m.Type == msgPing {
			continue
		}
		if m.Type != msgUnit {
			return fmt.Errorf("fleet: worker got unexpected %q frame", m.Type)
		}
		if m.V != protoVersion {
			return fmt.Errorf("fleet: protocol version %d, worker speaks %d", m.V, protoVersion)
		}
		s.SetBusy(true)
		stop := startHeartbeat(s)
		res := runUnit(ctx, &m, cache, s)
		stop()
		res.Type, res.Seq = msgResult, m.Seq
		if err := s.Send(res); err != nil {
			return err
		}
	}
}

// startHeartbeat pings the coordinator every heartbeatInterval until
// the returned stop function is called. A failed ping just stops the
// heartbeat — the unit's result frame (or the broken pipe it hits)
// carries the session's fate.
func startHeartbeat(s *rpcx.Session) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if s.Send(&wireMsg{Type: msgPing}) != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// runUnit executes one work unit and returns its result frame.
func runUnit(ctx context.Context, m *wireMsg, cache map[string]core.Machine, s *rpcx.Session) *wireMsg {
	mach, err := machineFor(m, cache)
	if err != nil {
		return &wireMsg{Err: err.Error()}
	}
	only := make(map[string]bool, len(m.IDs))
	for _, id := range m.IDs {
		only[id] = true
	}
	var opts core.Options
	if m.Opts != nil {
		opts = *m.Opts
	}
	var rec unitRecord
	suite := &core.Suite{
		M: mach, Opts: opts, Only: only, Extended: m.Extended,
		Timeout: m.Timeout, Retries: m.Retries, RetryBackoff: m.RetryBackoff,
		MaxRSD: m.MaxRSD, QualityRetries: m.QualityRetries,
		Events: forwardSink{seq: m.Seq, s: s},
		Cache:  &rec,
	}
	if _, err := suite.Run(ctx, &results.DB{}); err != nil {
		return &wireMsg{Err: err.Error()}
	}
	return &wireMsg{Record: &rec.JournalRecord}
}

// unitRecord is a unit cache that never hits and keeps the record the
// suite stores: the unit's entries in the order its experiment produced
// them, or its skip marker and error, so the coordinator journals
// exactly what an in-process run does.
type unitRecord struct{ core.JournalRecord }

func (*unitRecord) Lookup(string, string) (core.JournalRecord, bool) {
	return core.JournalRecord{}, false
}

func (u *unitRecord) Store(rec core.JournalRecord) error {
	u.JournalRecord = rec
	return nil
}

// machineFor resolves a unit's machine name to a built backend,
// reusing a previous build when the worker has one. Only simulated
// profiles are resolvable: they rebuild deterministically from their
// profile and DRAM timing, which is what makes a unit's result a
// function of (machine name, group) alone on any worker. Compiled
// built-ins and embedded data files resolve by name; anything else
// (file-loaded or calibration-candidate profiles) arrives inline on the
// dispatch frame. The DRAM timing always does: the worker assembles the
// machine on it and derives none, so a frame without one is refused.
func machineFor(m *wireMsg, cache map[string]core.Machine) (core.Machine, error) {
	name := m.Machine
	if m.DRAM == nil {
		return nil, fmt.Errorf("fleet: unit for %q carries no dram timing", name)
	}
	if mach, ok := cache[name]; ok {
		return mach, nil
	}
	var p machines.Profile
	switch {
	case m.Profile != nil:
		if m.Profile.Name != name {
			return nil, fmt.Errorf("fleet: unit machine %q carries profile %q", name, m.Profile.Name)
		}
		p = *m.Profile
	default:
		var ok bool
		if p, ok = machines.ByName(name); !ok {
			if p, ok = machines.Default().ByName(name); !ok {
				return nil, fmt.Errorf("fleet: unknown simulated machine %q", name)
			}
		}
	}
	mach, err := machines.BuildWith(p, *m.DRAM)
	if err != nil {
		return nil, fmt.Errorf("fleet: build %q: %w", name, err)
	}
	cache[name] = mach
	return mach, nil
}

// forwardSink streams the worker suite's events to the coordinator,
// which replays them into the run's real sinks. Send failures are
// dropped here — the result frame (or the broken pipe it hits) already
// carries the session's fate, and an event must never abort a
// measurement.
type forwardSink struct {
	seq int
	s   *rpcx.Session
}

func (f forwardSink) Event(e core.Event) {
	ev := e
	_ = f.s.Send(&wireMsg{Type: msgEvent, Seq: f.seq, Event: &ev})
}

// MachineNamesIn maps benchmark targets to fleet-resolvable profile
// names, in merge order. A worker rebuilds each machine from its
// profile, which has no meaning for the host backend (whose wall-clock
// serialization is per-process) or for ad-hoc wrapped machines; any
// profile cat knows (built-in, file-loaded or calibrated) qualifies,
// because the coordinator ships non-compiled profiles inline on the
// unit frame. A nil catalog means the shipped default.
func MachineNamesIn(cat *machines.Catalog, ms []core.Machine) ([]string, error) {
	if cat == nil {
		cat = machines.Default()
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		name := m.Name()
		if _, ok := cat.ByName(name); !ok {
			return nil, fmt.Errorf("fleet: machine %q is not a catalog profile; fleet execution supports simulated machines only", name)
		}
		names[i] = name
	}
	return names, nil
}
