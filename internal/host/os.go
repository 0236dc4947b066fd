package host

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"repro/internal/core"
)

type osOps struct {
	devnull *os.File
	bind    *binding

	sigCh chan os.Signal

	selfExe string

	// peer is the pinned cache-to-cache thread (ext.go).
	peer *smpPeer
}

var _ core.OSOps = (*osOps)(nil)

func newOSOps(b *binding) (*osOps, error) {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &osOps{devnull: f, bind: b, selfExe: exe}, nil
}

func (o *osOps) close() error {
	o.stopPeer()
	return o.devnull.Close()
}

var oneByte = []byte{0}

// NullWrite is the paper's Table 7 operation verbatim: "repeatedly
// writing one word to /dev/null".
func (o *osOps) NullWrite() error {
	_, err := o.devnull.Write(oneByte)
	return err
}

// SignalInstall registers the handler path. Go routes signals through
// the runtime, so this measures signal.Notify rather than raw
// sigaction; the first call pays one-time runtime setup.
func (o *osOps) SignalInstall() error {
	if o.sigCh == nil {
		o.sigCh = make(chan os.Signal, 8)
	}
	signal.Notify(o.sigCh, syscall.SIGUSR1)
	return nil
}

// SignalCatch sends SIGUSR1 to this process and waits for delivery.
func (o *osOps) SignalCatch() error {
	if o.sigCh == nil {
		return fmt.Errorf("host: SignalCatch without SignalInstall")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		return err
	}
	// The common case is immediate delivery; selecting on the bound
	// context keeps a lost signal from hanging a cancelled run.
	ctx := o.bind.context()
	if ctx.Done() == nil {
		<-o.sigCh
		return nil
	}
	select {
	case <-o.sigCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ForkExit spawns a copy of the current binary that exits immediately
// (the closest a Go program gets to fork-and-exit; the child's
// MaybeChild call makes it quit before doing anything).
func (o *osOps) ForkExit() error {
	cmd := exec.CommandContext(o.bind.context(), o.selfExe)
	cmd.Env = append(os.Environ(), ChildEnv+"=1")
	return cmd.Run()
}

// ForkExecExit spawns a tiny different program, the paper's
// "hello world" rung.
func (o *osOps) ForkExecExit() error {
	return exec.CommandContext(o.bind.context(), "/bin/true").Run()
}

// ForkShExit runs the tiny program via the shell, the paper's
// "fork, exec sh -c" rung.
func (o *osOps) ForkShExit() error {
	return exec.CommandContext(o.bind.context(), "/bin/sh", "-c", "true").Run()
}

// hostRing is the context-switch ring: the calling goroutine is
// process 0; the other procs-1 members are goroutines pinned to OS
// threads, connected by real pipes, each re-summing its footprint on
// every token receipt. Kernel-visible thread switches stand in for the
// paper's process switches (DESIGN.md §8).
type hostRing struct {
	procs int
	// inject is the write end feeding proc 1 (or looping back for a
	// one-process ring); collect is the read end the token returns on.
	inject  *os.File
	collect *os.File
	// every pipe file, for Close.
	files []*os.File
	foot  []uint64 // coordinator's footprint
	done  sync.WaitGroup
	// bind holds inject and collect from NewRing until Close.
	bind *binding
}

func (o *osOps) NewRing(nprocs int, footprint int64) (core.Ring, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("host: ring needs at least one process")
	}
	if footprint < 0 {
		return nil, fmt.Errorf("host: negative footprint")
	}
	r := &hostRing{procs: nprocs, bind: o.bind}
	words := footprint / 8
	if words > 0 {
		r.foot = make([]uint64, words)
	}

	// pipes[i] carries the token from member i to member i+1 mod n.
	type pipe struct{ r, w *os.File }
	pipes := make([]pipe, nprocs)
	for i := range pipes {
		pr, pw, err := os.Pipe()
		if err != nil {
			for _, f := range r.files {
				_ = f.Close()
			}
			return nil, err
		}
		pipes[i] = pipe{pr, pw}
		r.files = append(r.files, pr, pw)
	}
	r.inject = pipes[0].w
	r.collect = pipes[nprocs-1].r

	for i := 1; i < nprocs; i++ {
		in := pipes[i-1].r
		out := pipes[i].w
		var foot []uint64
		if words > 0 {
			foot = make([]uint64, words)
		}
		r.done.Add(1)
		go func() {
			defer r.done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			buf := make([]byte, 1)
			for {
				if _, err := in.Read(buf); err != nil {
					return
				}
				var sink uint64
				for _, w := range foot {
					sink += w
				}
				// Keep the sum live by folding it into the token byte
				// (its value is never interpreted).
				buf[0] |= byte(sink)
				if _, err := out.Write(buf); err != nil {
					return
				}
			}
		}()
	}
	r.bind.join(r.inject, r.collect)
	return r, nil
}

// Pass circulates the token once around the ring.
func (r *hostRing) Pass() error {
	if err := r.bind.context().Err(); err != nil {
		return err
	}
	var buf [1]byte
	if _, err := r.inject.Write(buf[:]); err != nil {
		return err
	}
	if _, err := r.collect.Read(buf[:]); err != nil {
		return err
	}
	var s uint64
	for _, w := range r.foot {
		s += w
	}
	Sink += s
	return nil
}

func (r *hostRing) Procs() int { return r.procs }

// Close tears the ring down; workers exit on pipe EOF.
func (r *hostRing) Close() error {
	r.bind.leave(r.inject, r.collect)
	for _, f := range r.files {
		_ = f.Close()
	}
	r.done.Wait()
	return nil
}
