package lmbench

import (
	"context"
	"net"

	istore "repro/internal/store"
)

// This file re-exports the results store so binaries can persist,
// publish and serve multi-run results from the facade alone. The store
// is content-addressed: runs are keyed by the hash of (machines,
// options fingerprint, code version, content hash), so identical
// deterministic runs dedupe and every HTTP response carries a strong
// content-derived ETag. See Report.RunID, WithStore, WithPublish.

// Store is a persistent, content-addressed multi-run results store on
// a directory; see OpenStore.
type Store = istore.Store

// Manifest describes one stored run: machines, options fingerprint,
// code version, content hash, ingest sequence.
type Manifest = istore.Manifest

// StoreServer is the store's HTTP query/compare surface: run listings,
// paper-style tables, comparisons, trend series and regression
// reports, all behind content-hash ETags. Configure with a Store and
// an optional metrics Registry, then Start it or mount Handler.
type StoreServer = istore.Server

// OpenStore opens (creating if needed) the results store rooted at
// dir.
func OpenStore(dir string) (*Store, error) { return istore.Open(dir) }

// PublishOptions tunes PublishRunWith: retry count and backoff for
// transport failures, idle deadlines, and test seams. The zero value
// selects production defaults (4 retries, 100ms initial backoff
// doubling to 30s, 30s idle timeout).
type PublishOptions = istore.PublishOptions

// IngestOptions tunes ServeStoreIngestWith: session deadlines, drain
// budget, metrics registry, and test seams. The zero value selects
// production defaults.
type IngestOptions = istore.IngestOptions

// PublishRunWith streams a database to a results-store daemon at addr
// (see ServeStoreIngestWith); the returned manifest carries the
// daemon-assigned run identity. The store fills m's ContentHash,
// Entries, RunID, Seq and Created. Transport failures are retried with
// capped backoff — safe because runs are content-addressed, so a
// half-landed publish is finished idempotently by the next attempt.
func PublishRunWith(ctx context.Context, addr string, m Manifest, db *DB, o PublishOptions) (Manifest, error) {
	return istore.PublishWith(ctx, addr, m, db, o)
}

// ServeStoreIngestWith accepts publish sessions on ln and ingests them
// into s until ctx is cancelled — the daemon side of WithPublish and
// PublishRunWith. Cancellation drains gracefully: in-flight commits
// finish (bounded by the drain budget) before it returns nil.
func ServeStoreIngestWith(ctx context.Context, ln net.Listener, s *Store, o IngestOptions) error {
	return istore.ServeIngest(ctx, ln, s, o)
}
