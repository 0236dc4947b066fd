package main

// This file holds the long-running service modes: the remote fleet
// worker daemon, the results-store daemon (and its offline scrub) and
// the deterministic lossy proxy. They compose no benchmark run.

import (
	"context"
	"fmt"
	"io"
	"net"

	lmbench "repro"
	"repro/internal/fleet"
	"repro/internal/netfaults"
	"repro/internal/rpcx"
)

// serveFleet runs the remote fleet worker daemon on addr.
func serveFleet(ctx context.Context, addr string, quiet bool, stderr io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-fleet-listen: %w", err)
	}
	if !quiet {
		fmt.Fprintf(stderr, "fleet worker daemon on %s\n", ln.Addr())
	}
	return fleet.ServeWith(ctx, ln, rpcx.ServeOptions{})
}

// serveStore runs the results-store daemon: runs published with
// -publish land in the store at dir, and, when httpAddr is set, the
// query/compare API (run listings, paper tables, comparisons, trends,
// regression reports) is served alongside. The store is scrubbed at
// startup — a daemon that crashed mid-ingest comes back with partial
// writes swept and any corruption quarantined — and SIGINT/SIGTERM
// drain in-flight publishes before the process exits.
func serveStore(ctx context.Context, listenAddr, dir, httpAddr string, catalog *lmbench.Catalog, quiet bool, stderr io.Writer) error {
	s, err := lmbench.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("-store-dir: %w", err)
	}
	rep, err := s.Scrub()
	if err != nil {
		return fmt.Errorf("startup scrub: %w", err)
	}
	if !quiet {
		fmt.Fprintf(stderr, "startup scrub: %s\n", rep)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("-store-listen: %w", err)
	}
	if !quiet {
		fmt.Fprintf(stderr, "results store daemon on %s (store %s)\n", ln.Addr(), dir)
	}
	registry := lmbench.NewRegistry()
	if httpAddr != "" {
		srv := &lmbench.StoreServer{Store: s, Registry: registry, Catalog: catalog}
		addr, stopServe, err := srv.Start(ctx, httpAddr)
		if err != nil {
			return fmt.Errorf("-store-http: %w", err)
		}
		defer stopServe()
		if !quiet {
			fmt.Fprintf(stderr, "store api: http://%s/api/runs\n", addr)
		}
	}
	return lmbench.ServeStoreIngestWith(ctx, ln, s, lmbench.IngestOptions{Registry: registry})
}

// scrubStore verifies the store at dir on demand and prints what was
// found; corruption is quarantined (never deleted) and partial writes
// swept, so a crashed daemon's directory is safe to serve again.
func scrubStore(dir string, stdout io.Writer) error {
	s, err := lmbench.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("-store-dir: %w", err)
	}
	rep, err := s.Scrub()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, rep)
	return nil
}

// serveChaosProxy runs the deterministic lossy proxy: record-framed
// traffic relayed to target with seeded frame-level faults, for
// rehearsing daemon failures without touching the daemons themselves.
func serveChaosProxy(ctx context.Context, planText, listenAddr, target string, quiet bool, stdout, stderr io.Writer) error {
	if target == "" {
		return fmt.Errorf("-chaos-net requires -chaos-target")
	}
	plan, err := netfaults.ParsePlan(planText)
	if err != nil {
		return fmt.Errorf("-chaos-net: %w", err)
	}
	inj := netfaults.New(plan)
	p := &netfaults.Proxy{Inj: inj, Target: target}
	if !quiet {
		p.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "chaos: "+format+"\n", args...)
		}
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("-chaos-listen: %w", err)
	}
	// The address line is machine-readable on stdout so scripts can
	// point publishers at an ephemeral proxy port.
	fmt.Fprintf(stdout, "chaos proxy %s -> %s\n", ln.Addr(), target)
	err = p.Serve(ctx, ln)
	if !quiet {
		fmt.Fprintf(stderr, "chaos proxy: %s\n", inj.Stats())
	}
	return err
}
