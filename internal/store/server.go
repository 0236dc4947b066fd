package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/compare"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/paperdata"
	"repro/internal/results"
)

// Server is the store's HTTP query/compare surface — the serving layer
// in front of the results database, grown out of obs.Server's
// context-bound lifecycle:
//
//	/healthz                      liveness
//	/metrics                      Prometheus exposition (when Registry set)
//	/api/runs                     JSON run listing, ingest order
//	/api/runs/{ref}               one run's manifest
//	/api/runs/{ref}/db            the canonical database bytes
//	/api/runs/{ref}/tables        every paper table rendered from the run
//	/api/runs/{ref}/tables/{id}   one paper table ("table2" … "table17")
//	/api/compare?ref=&got=        sorted comparison table ("paper" allowed)
//	/api/trend?bench=&machine=    per-benchmark series across runs (JSON)
//	/api/regressions?base=&head=  automatic regression report (text)
//	/api/machines                 machine-catalog listing (JSON)
//	/api/machines/{name}          one profile's canonical JSON
//
// A {ref} or query reference is anything Store.Resolve accepts: a run
// ID or unique prefix, a label, or "latest"/"latest~N".
//
// The read path is built for traffic. Every response carries a strong
// ETag derived from content hashes — a run's database and everything
// rendered from it are keyed by its content hash, and listing/trend
// responses by the store generation (which changes exactly when a run
// is ingested). If-None-Match short-circuits to 304 before any
// rendering, and rendered bodies are cached under their ETag, so the
// cache can never serve stale bytes: new content means a new key, and
// a "latest" comparison is re-rendered the moment a new run lands.
type Server struct {
	Store *Store
	// Registry, when set, mounts /metrics and counts requests, 304s
	// and render-cache traffic as lmbench_store_* families.
	Registry *obs.Registry
	// Catalog backs /api/machines; nil serves the shipped catalog.
	// Profile ETags derive from fingerprints, so a mutable catalog
	// (file-loaded or calibrated profiles added while serving) stays
	// correctly revalidated.
	Catalog *machines.Catalog

	metricsOnce sync.Once
	reqs        *obs.Counter
	notModified *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	mu         sync.Mutex
	cache      map[string][]byte
	cacheOrder []string
}

// maxCachedBodies bounds the rendered-body cache. Keys are content
// hashes, so eviction only costs a re-render, never correctness.
const maxCachedBodies = 256

func (s *Server) initMetrics() {
	s.metricsOnce.Do(func() {
		if s.Registry == nil {
			return
		}
		s.reqs = s.Registry.Counter("lmbench_store_http_requests_total",
			"HTTP requests served by the results-store API.")
		s.notModified = s.Registry.Counter("lmbench_store_http_not_modified_total",
			"Requests answered 304 via If-None-Match revalidation.")
		s.cacheHits = s.Registry.Counter("lmbench_store_render_cache_hits_total",
			"Rendered bodies served from the content-hash cache.")
		s.cacheMisses = s.Registry.Counter("lmbench_store_render_cache_misses_total",
			"Rendered bodies computed on demand.")
		s.Registry.GaugeFunc("lmbench_store_runs",
			"Runs currently stored.", func() float64 {
				runs, err := s.Store.Runs()
				if err != nil {
					return -1
				}
				return float64(len(runs))
			})
	})
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// etagFor derives a strong ETag from the parts that determine a
// response body: renderer name, renderer inputs, content hashes.
func etagFor(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%s\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// cached returns the body stored under etag.
func (s *Server) cached(etag string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.cache[etag]
	return b, ok
}

// remember stores body under etag, evicting oldest-inserted entries
// past the cap.
func (s *Server) remember(etag string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		s.cache = make(map[string][]byte)
	}
	if _, ok := s.cache[etag]; ok {
		return
	}
	s.cache[etag] = body
	s.cacheOrder = append(s.cacheOrder, etag)
	for len(s.cacheOrder) > maxCachedBodies {
		delete(s.cache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
	}
}

// respond implements the shared conditional-GET discipline: set the
// ETag, answer 304 to a matching If-None-Match without rendering,
// otherwise serve the cached body or render and remember it.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, etag, contentType string, render func() ([]byte, error)) {
	inc(s.reqs)
	quoted := `"` + etag + `"`
	w.Header().Set("ETag", quoted)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" {
		for _, cand := range strings.Split(match, ",") {
			cand = strings.TrimSpace(cand)
			if cand == quoted || cand == "*" || cand == "W/"+quoted {
				inc(s.notModified)
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}
	body, ok := s.cached(etag)
	if ok {
		inc(s.cacheHits)
	} else {
		inc(s.cacheMisses)
		var err error
		body, err = render()
		if err != nil {
			// Errors carry no validator: the ETag names a successful
			// rendering, and leaving it on a failure would let a later
			// If-None-Match revalidate the error to a 304.
			w.Header().Del("ETag")
			httpError(w, err)
			return
		}
		s.remember(etag, body)
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(body)
}

// httpError maps store errors onto status codes: unknown references
// are 404, everything else a 500.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	msg := err.Error()
	if strings.Contains(msg, "no run matches") || strings.Contains(msg, "no machine named") || strings.Contains(msg, "only") && strings.Contains(msg, "stored") {
		code = http.StatusNotFound
	} else if strings.Contains(msg, "ambiguous") || strings.Contains(msg, "empty run reference") || strings.Contains(msg, "bad reference") || strings.Contains(msg, "no benchmarks in common") {
		code = http.StatusBadRequest
	}
	http.Error(w, msg, code)
}

// Handler returns the route table, exported separately so tests (and
// embedders) can drive it without a socket.
func (s *Server) Handler() http.Handler {
	s.initMetrics()
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	if s.Registry != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = s.Registry.WritePrometheus(w)
		})
	}

	mux.HandleFunc("GET /api/runs", func(w http.ResponseWriter, r *http.Request) {
		gen, err := s.Store.Generation()
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("runs", gen), "application/json", func() ([]byte, error) {
			runs, err := s.Store.Runs()
			if err != nil {
				return nil, err
			}
			return jsonBody(runs)
		})
	})

	mux.HandleFunc("GET /api/runs/{ref}", func(w http.ResponseWriter, r *http.Request) {
		m, err := s.Store.Resolve(r.PathValue("ref"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("manifest", m.RunID), "application/json", func() ([]byte, error) {
			return jsonBody(m)
		})
	})

	mux.HandleFunc("GET /api/runs/{ref}/db", func(w http.ResponseWriter, r *http.Request) {
		m, err := s.Store.Resolve(r.PathValue("ref"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("db", m.ContentHash), "text/plain; charset=utf-8", func() ([]byte, error) {
			return s.Store.Object(m.ContentHash)
		})
	})

	mux.HandleFunc("GET /api/runs/{ref}/tables", func(w http.ResponseWriter, r *http.Request) {
		m, err := s.Store.Resolve(r.PathValue("ref"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("tables", m.ContentHash), "text/plain; charset=utf-8", func() ([]byte, error) {
			_, db, err := s.Store.DB(m.RunID)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := paper.RenderAll(&buf, db); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
	})

	mux.HandleFunc("GET /api/runs/{ref}/tables/{table}", func(w http.ResponseWriter, r *http.Request) {
		m, err := s.Store.Resolve(r.PathValue("ref"))
		if err != nil {
			httpError(w, err)
			return
		}
		table := r.PathValue("table")
		s.respond(w, r, etagFor("table", table, m.ContentHash), "text/plain; charset=utf-8", func() ([]byte, error) {
			_, db, err := s.Store.DB(m.RunID)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := paper.RenderTable(&buf, table, db); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
	})

	mux.HandleFunc("GET /api/machines", func(w http.ResponseWriter, r *http.Request) {
		cat := s.catalog()
		entries := cat.Entries()
		list := make([]machineInfo, 0, len(entries))
		parts := []string{"machines"}
		for _, e := range entries {
			fp, err := e.Profile.Fingerprint()
			if err != nil {
				httpError(w, err)
				return
			}
			// Fingerprint() is the full canonical identity string;
			// publish its digest, not whole profiles, in the listing.
			list = append(list, machineInfo{
				Name: e.Profile.Name, CPU: e.Profile.CPUName, OS: e.Profile.OSName,
				Geometry: machines.GeometrySummary(e.Profile),
				Source:   e.Source, Fingerprint: fingerprintDigest(fp),
			})
			parts = append(parts, e.Profile.Name, e.Source, fp)
		}
		s.respond(w, r, etagFor(parts...), "application/json", func() ([]byte, error) {
			return jsonBody(list)
		})
	})

	// Machine names contain "/" ("Linux/i686"), hence the ... wildcard.
	mux.HandleFunc("GET /api/machines/{name...}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e, ok := s.catalog().Entry(name)
		if !ok {
			httpError(w, fmt.Errorf("no machine named %q in the catalog", name))
			return
		}
		fp, err := e.Profile.Fingerprint()
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("machine", name, e.Source, fp), "application/json", func() ([]byte, error) {
			return machines.EncodeProfile(e.Profile)
		})
	})

	mux.HandleFunc("GET /api/compare", func(w http.ResponseWriter, r *http.Request) {
		refKey, refDB, err := s.resolveCompareRef(r.URL.Query().Get("ref"))
		if err != nil {
			httpError(w, err)
			return
		}
		gotKey, gotDB, err := s.resolveCompareRef(r.URL.Query().Get("got"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("compare", refKey, gotKey), "text/plain; charset=utf-8", func() ([]byte, error) {
			ref, err := refDB()
			if err != nil {
				return nil, err
			}
			got, err := gotDB()
			if err != nil {
				return nil, err
			}
			comps := compare.Compare(ref, got)
			if len(comps) == 0 {
				return nil, fmt.Errorf("no benchmarks in common between %s and %s", refKey, gotKey)
			}
			var buf bytes.Buffer
			compare.Render(&buf, comps)
			mean, above, total := compare.Summary(comps, 0.6)
			fmt.Fprintf(&buf, "\nshape agreement: mean rank %.3f; %d/%d benchmarks >= 0.60\n",
				mean, above, total)
			return buf.Bytes(), nil
		})
	})

	mux.HandleFunc("GET /api/trend", func(w http.ResponseWriter, r *http.Request) {
		bench := r.URL.Query().Get("bench")
		machine := r.URL.Query().Get("machine")
		if bench == "" || machine == "" {
			http.Error(w, "trend needs ?bench= and ?machine=", http.StatusBadRequest)
			return
		}
		gen, err := s.Store.Generation()
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("trend", gen, bench, machine), "application/json", func() ([]byte, error) {
			points, err := s.Trend(bench, machine)
			if err != nil {
				return nil, err
			}
			return jsonBody(points)
		})
	})

	mux.HandleFunc("GET /api/regressions", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		baseRef, headRef := q.Get("base"), q.Get("head")
		if baseRef == "" {
			baseRef = "latest~1"
		}
		if headRef == "" {
			headRef = "latest"
		}
		base, err := s.Store.Resolve(baseRef)
		if err != nil {
			httpError(w, err)
			return
		}
		head, err := s.Store.Resolve(headRef)
		if err != nil {
			httpError(w, err)
			return
		}
		s.respond(w, r, etagFor("regressions", base.RunID, head.RunID), "text/plain; charset=utf-8", func() ([]byte, error) {
			_, baseDB, err := s.Store.DB(base.RunID)
			if err != nil {
				return nil, err
			}
			_, headDB, err := s.Store.DB(head.RunID)
			if err != nil {
				return nil, err
			}
			rep := compare.Regressions(baseDB, headDB, compare.RegressOptions{})
			rep.BaseID, rep.HeadID = runTitle(base), runTitle(head)
			var buf bytes.Buffer
			compare.RenderRegressions(&buf, rep)
			return buf.Bytes(), nil
		})
	})

	return mux
}

// catalog resolves the serving catalog (nil field = the shipped set).
func (s *Server) catalog() *machines.Catalog {
	if s.Catalog != nil {
		return s.Catalog
	}
	return machines.Default()
}

// machineInfo is one row of the /api/machines listing.
// fingerprintDigest compresses a Profile.Fingerprint identity string
// (the full canonical JSON) into a short stable hex digest for
// listings and cache-key display.
func fingerprintDigest(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:])[:32]
}

type machineInfo struct {
	Name        string `json:"name"`
	CPU         string `json:"cpu,omitempty"`
	OS          string `json:"os,omitempty"`
	Geometry    string `json:"geometry,omitempty"`
	Source      string `json:"source"`
	Fingerprint string `json:"fingerprint"`
}

// runTitle names a run in human-facing reports: its label when set,
// else a run-ID prefix.
func runTitle(m Manifest) string {
	if m.Label != "" {
		return m.Label
	}
	if len(m.RunID) > 12 {
		return m.RunID[:12]
	}
	return m.RunID
}

// resolveCompareRef maps a comparison reference — "paper" or any run
// reference — to a cache key and a lazy database loader. The loader is
// lazy so a 304 or cached render never touches disk.
func (s *Server) resolveCompareRef(ref string) (string, func() (*results.DB, error), error) {
	if ref == "" {
		return "", nil, fmt.Errorf("empty run reference (use ?ref= and ?got=)")
	}
	if ref == "paper" {
		return "paper", func() (*results.DB, error) { return paperdata.DB(), nil }, nil
	}
	m, err := s.Store.Resolve(ref)
	if err != nil {
		return "", nil, err
	}
	return m.ContentHash, func() (*results.DB, error) {
		_, db, err := s.Store.DB(m.RunID)
		return db, err
	}, nil
}

// TrendPoint is one run's value of one benchmark on one machine.
type TrendPoint struct {
	RunID       string    `json:"run_id"`
	Seq         int64     `json:"seq"`
	Label       string    `json:"label,omitempty"`
	CodeVersion string    `json:"code_version"`
	Created     time.Time `json:"created"`
	Unit        string    `json:"unit"`
	Value       float64   `json:"value"`
}

// Trend collects the scalar value of (bench, machine) from every
// stored run that has it, in ingest order — the per-experiment
// trajectory across runs the regression report summarizes pairwise.
func (s *Server) Trend(bench, machine string) ([]TrendPoint, error) {
	runs, err := s.Store.Runs()
	if err != nil {
		return nil, err
	}
	points := make([]TrendPoint, 0, len(runs))
	for _, m := range runs {
		_, db, err := s.Store.DB(m.RunID)
		if err != nil {
			return nil, err
		}
		e, ok := db.Get(bench, machine)
		if !ok || e.IsSeries() {
			continue
		}
		points = append(points, TrendPoint{
			RunID: m.RunID, Seq: m.Seq, Label: m.Label,
			CodeVersion: m.CodeVersion, Created: m.Created,
			Unit: e.Unit, Value: e.Scalar,
		})
	}
	return points, nil
}

func jsonBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Start begins serving the API on addr in the background and returns
// the bound address; the server stops when ctx is cancelled (the
// obs.StartHTTP lifecycle).
func (s *Server) Start(ctx context.Context, addr string) (bound string, stop func(), err error) {
	return obs.StartHTTP(ctx, addr, s.Handler())
}
