package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/store"
)

// publish commits db into a fresh store at dir through an in-process
// ingest daemon on loopback. The timed round trip runs from the
// client-side encode to the daemon's commit reply.
func publish(ctx context.Context, dir string, m store.Manifest, db *results.DB) (float64, store.Manifest, error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, store.Manifest{}, err
	}
	hash, err := hashDB(db)
	if err != nil {
		return 0, store.Manifest{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, store.Manifest{}, err
	}
	dctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- store.ServeIngest(dctx, ln, st, store.IngestOptions{}) }()
	defer func() {
		cancel()
		<-served
	}()

	start := time.Now()
	got, err := store.PublishWith(ctx, ln.Addr().String(), m, db, store.PublishOptions{Retries: -1})
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, store.Manifest{}, fmt.Errorf("publish: %w", err)
	}
	want := m
	want.ContentHash = hash
	if got.ContentHash != hash || got.RunID != store.RunIDFor(want) {
		return 0, store.Manifest{}, fmt.Errorf("publish stored run %.12s with content %.12s, want %.12s with %.12s",
			got.RunID, got.ContentHash, store.RunIDFor(want), hash)
	}
	return secs, got, nil
}

// queryRequests and queryRenders size the store burst: 3000 requests,
// so far more than ten lie beyond p99, of which 60 (2%) are the first
// request of a distinct URL and render; the rest hit the render cache,
// half of them revalidating an ETag. At 2% the p99 falls at the median
// render, well inside the render mode; at ~1% it would flip between
// the render and hit modes from run to run.
const (
	queryRequests = 3000
	queryRenders  = 60
)

// queryBursts is how many bursts an untraced round sends. A burst's p99
// and p50 vary by a fifth or more from burst to burst within one run,
// so each timing's median wants many of them.
const queryBursts = 2

// burst is one query burst's outcome.
type burst struct {
	requests    int
	lat         []float64 // ms, every request
	render      []float64 // ms, first request of each URL
	hit         []float64 // ms, later unconditional requests
	notModified int
	// renderMisses and renderHits are the server's render-cache counters.
	renderMisses, renderHits int64
}

// request is one scheduled query.
type request struct {
	url   int
	first bool // the URL's first request; it renders
	cond  bool // revalidates the first response's ETag
}

// urlState is what the first request of a URL learned.
type urlState struct {
	ready chan struct{} // closed when the first request has finished
	etag  string
	sum   [32]byte
}

// queryBurst serves the store at dir over HTTP and sends it the burst
// from parallelism() closed-loop clients. Every response is checked: a
// first request must answer 200, with the run's content hash where the
// body carries it; a later one must repeat the first response byte for
// byte or answer its ETag with 304.
func queryBurst(ctx context.Context, dir string, m store.Manifest, db *results.DB, only map[string]bool, rng *rand.Rand) (*burst, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := &store.Server{Store: st, Registry: reg}
	addr, stop, err := srv.Start(ctx, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer stop()

	urls := queryURLs(m, db, only, rng)
	sched := schedule(len(urls), rng)
	states := make([]urlState, len(urls))
	for i := range states {
		states[i].ready = make(chan struct{})
	}
	b := &burst{requests: len(sched)}
	var (
		mu       sync.Mutex
		failures []string
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for c := 0; c < parallelism(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				r := sched[i]
				us := &states[r.url]
				if !r.first {
					<-us.ready
				}
				ms, status, err := fetch(ctx, client, "http://"+addr+urls[r.url], r, us, m)
				if r.first {
					close(us.ready)
				}
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, urls[r.url]+": "+err.Error())
				case r.first:
					b.render = append(b.render, ms)
				case status == http.StatusNotModified:
					b.notModified++
				default:
					b.hit = append(b.hit, ms)
				}
				if err == nil {
					b.lat = append(b.lat, ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.renderMisses = reg.Counter("lmbench_store_render_cache_misses_total", "").Value()
	b.renderHits = reg.Counter("lmbench_store_render_cache_hits_total", "").Value()
	if len(failures) > 0 {
		return b, fmt.Errorf("%d of %d store requests failed, first: %s", len(failures), len(sched), failures[0])
	}
	return b, nil
}

func fetch(ctx context.Context, c *http.Client, target string, r request, us *urlState, m store.Manifest) (float64, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return 0, 0, err
	}
	if r.cond {
		req.Header.Set("If-None-Match", us.etag)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return 0, 0, err
	}
	etag, sum := resp.Header.Get("ETag"), sha256.Sum256(body)
	switch {
	case resp.StatusCode == http.StatusNotModified && r.cond && etag == us.etag:
	case resp.StatusCode != http.StatusOK:
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	case r.first:
		if err := checkContent(target, body, m); err != nil {
			return 0, 0, err
		}
		us.etag, us.sum = etag, sum
	case etag != us.etag || sum != us.sum:
		return 0, 0, errors.New("response differs from the URL's first response")
	}
	return ms, resp.StatusCode, nil
}

// checkContent verifies the bodies that name the run's content: the
// database bytes hash to it and the manifest carries it.
func checkContent(target string, body []byte, m store.Manifest) error {
	switch {
	case strings.HasSuffix(target, "/db"):
		if got := sha256Hex(body); got != m.ContentHash {
			return fmt.Errorf("database bytes hash to %.12s, want %.12s", got, m.ContentHash)
		}
	case strings.HasSuffix(target, "/api/runs/"+m.RunID):
		var got store.Manifest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
			return err
		}
		if got.ContentHash != m.ContentHash {
			return fmt.Errorf("manifest content hash %.12s, want %.12s", got.ContentHash, m.ContentHash)
		}
	}
	return nil
}

// queryURLs lists up to queryRenders distinct URLs over the published
// run: the listing, manifest and database, every rendered table, the
// paper comparison and regression report, and trend series of
// seed-chosen (benchmark, machine) pairs for the rest. Trends are most
// of the renders and cost alike, so the median render — the burst's
// p99 — does not sit on a boundary between render kinds.
func queryURLs(m store.Manifest, db *results.DB, only map[string]bool, rng *rand.Rand) []string {
	run := "/api/runs/" + m.RunID
	urls := []string{
		"/api/runs", run, run + "/db", run + "/tables",
		"/api/compare?ref=paper&got=" + m.RunID,
		"/api/regressions?base=" + m.RunID + "&head=" + m.RunID,
	}
	for _, e := range core.Experiments() {
		if strings.HasPrefix(e.ID, "table") && (only == nil || only[e.ID]) {
			urls = append(urls, run+"/tables/"+e.ID)
		}
	}
	var pairs [][2]string
	for _, e := range db.Entries() {
		if !e.IsSeries() {
			pairs = append(pairs, [2]string{e.Benchmark, e.Machine})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		if len(urls) >= queryRenders {
			break
		}
		urls = append(urls, "/api/trend?bench="+url.QueryEscape(p[0])+"&machine="+url.QueryEscape(p[1]))
	}
	return urls
}

// schedule orders the burst: every URL once plus random repeats, half
// of them conditional, shuffled. Each URL's first request is forced
// unconditional and marked: it is the one that renders.
func schedule(n int, rng *rand.Rand) []request {
	reqs := make([]request, 0, queryRequests)
	for i := 0; i < n; i++ {
		reqs = append(reqs, request{url: i})
	}
	for len(reqs) < queryRequests {
		reqs = append(reqs, request{url: rng.Intn(n), cond: rng.Intn(2) == 0})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	seen := make([]bool, n)
	for i := range reqs {
		if !seen[reqs[i].url] {
			seen[reqs[i].url] = true
			reqs[i].first, reqs[i].cond = true, false
		}
	}
	return reqs
}
