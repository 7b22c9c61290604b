package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Options configures a Server. The zero value serves with sane
// defaults; cmd/reprod maps its flags onto these fields.
type Options struct {
	// CacheEntries bounds the in-memory LRU result cache (0 = default
	// 256 entries; negative disables memory caching entirely — every
	// request consults the disk tier or recomputes).
	CacheEntries int
	// CacheDir, when non-empty, enables the persistent result store:
	// response bytes are spilled to <CacheDir>/<sha256-of-RunKey>.json
	// (atomic write-temp+fsync+rename), the memory LRU is warmed from
	// the store at boot, and a memory miss consults disk before
	// computing. An unusable directory degrades the server to
	// memory-only with a diagnostic, never a failed boot.
	CacheDir string
	// CacheDiskBytes bounds the store's total spill bytes, enforced by
	// LRU eviction of spill files (0 = default 256 MiB).
	CacheDiskBytes int64
	// RatePerSec and RateBurst shape the per-client token bucket on
	// /v1/run: sustained requests per second and the burst allowance.
	// RatePerSec <= 0 disables rate limiting.
	RatePerSec float64
	RateBurst  int
	// MaxInflightRuns bounds concurrent experiment sweeps; a saturated
	// server answers 503 (default GOMAXPROCS — each sweep brings its
	// own worker pool, so stacking more runs than cores only queues).
	MaxInflightRuns int
	// RunTimeout caps one sweep's wall clock (0 = no cap). The timeout
	// cancels the run's context, so the sweep drains leak-free.
	RunTimeout time.Duration
	// RunWorkers is the per-run sweep worker count (0 = GOMAXPROCS).
	// It is server policy, never client input: results are
	// workers-independent, so it must not enter the cache identity.
	RunWorkers int
	// MaxTrials and MaxScale cap request parameters — admission
	// control against a single request planning an unbounded sweep
	// (defaults 100 and 100).
	MaxTrials int
	MaxScale  int
	// Logf, when non-nil, receives one structured line per request.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.CacheDiskBytes == 0 {
		o.CacheDiskBytes = 256 << 20
	}
	if o.RateBurst < 1 {
		o.RateBurst = 1
	}
	if o.MaxInflightRuns <= 0 {
		o.MaxInflightRuns = runtime.GOMAXPROCS(0)
	}
	if o.MaxTrials <= 0 {
		o.MaxTrials = 100
	}
	if o.MaxScale <= 0 {
		o.MaxScale = 100
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the experiment-serving daemon's core: request validation
// against the registry, the exact result cache with single-flight
// deduplication, admission control, metrics, and drain. cmd/reprod
// wraps it in an http.Server; tests drive Handler directly.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *resultCache
	store   *diskStore // nil = memory-only (no CacheDir, or unusable dir)
	diskErr error      // why the disk tier is off, when CacheDir was set
	flights *flightGroup
	limiter *rateLimiter
	slots   runSlots
	mux     http.Handler
	start   time.Time

	drainCtx context.Context
	drain    context.CancelFunc

	// runExperiment is the sweep entry point; tests substitute it to
	// count and block runs without registering fake experiments.
	runExperiment func(ctx context.Context, e sim.Experiment, cfg sim.ExpConfig) (*sim.Result, error)
}

// sentinel errors of the run path, mapped to HTTP statuses in
// writeRunError.
var (
	errSaturated = errors.New("serve: all run slots busy")
	errCancelled = errors.New("serve: request cancelled")
	errNotFound  = errors.New("unknown experiment")
)

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		metrics: NewMetrics(),
		flights: newFlightGroup(),
		limiter: newRateLimiter(opts.RatePerSec, opts.RateBurst, nil),
		slots:   newRunSlots(opts.MaxInflightRuns),
		start:   time.Now(),
		runExperiment: func(ctx context.Context, e sim.Experiment, cfg sim.ExpConfig) (*sim.Result, error) {
			return e.Run(ctx, cfg, sim.RunOptions{})
		},
	}
	s.cache = newResultCache(opts.CacheEntries, func() {
		s.metrics.CacheEvictions.Add(1)
		s.metrics.CacheEntries.Add(-1)
	})
	if opts.CacheDir != "" {
		store, warm, err := newDiskStore(opts.CacheDir, opts.CacheDiskBytes, max(opts.CacheEntries, 0), s.metrics, opts.Logf)
		if err != nil {
			// Graceful degradation: an unusable cache directory costs
			// persistence, never the service.
			s.diskErr = err
			opts.Logf("reprod: cache dir %s unusable (%v); serving memory-only", opts.CacheDir, err)
		} else {
			s.store = store
			// Warm the LRU most-recently-used last, so the freshest
			// spill ends up at the front of the cache order.
			for i := len(warm) - 1; i >= 0; i-- {
				s.cache.add(warm[i].key, warm[i].body)
			}
			s.metrics.WarmedEntries.Store(int64(s.cache.len()))
			s.metrics.CacheEntries.Store(int64(s.cache.len()))
		}
	}
	s.drainCtx, s.drain = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /debug/stats", s.handleDebugStats)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (for tests and perfbench).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain cancels every inflight run's context and flips /healthz to
// 503, so load balancers stop routing here while http.Server.Shutdown
// reaps the (now promptly-returning) handlers. Runs cancelled by a
// drain are not cached; a restarted server recomputes them exactly.
func (s *Server) Drain() { s.drain() }

func (s *Server) draining() bool { return s.drainCtx.Err() != nil }

// RunRequest is one experiment request: the body of POST /v1/run or
// the query parameters of GET /v1/run. The fields are exactly the
// knobs that enter the run identity (sim.RunKey) — Workers is
// deliberately not accepted: parallelism is server policy and results
// are workers-independent.
type RunRequest struct {
	// Exp is the experiment's registry name (see GET /v1/experiments).
	Exp string `json:"exp"`
	// Seed is the master seed (default 2012, the CLIs' default).
	Seed *uint64 `json:"seed,omitempty"`
	// Trials per point (default 5) and Scale (default 1).
	Trials int `json:"trials,omitempty"`
	Scale  int `json:"scale,omitempty"`
	// Kind selects the RNG family: "xoshiro" (default), "mt19937"
	// (the paper's generator), or "splitmix".
	Kind string `json:"kind,omitempty"`
	// MaxSteps caps each trial's walk (0 = experiment default).
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// defaultSeed mirrors the batch CLI (cmd/sweep, including its -report
// document), so a bare `curl /v1/run?exp=thm1` reproduces
// `sweep -exp thm1`.
const defaultSeed = 2012

// kindNames maps the request's RNG family names onto rng kinds.
var kindNames = map[string]rng.Kind{
	"":         rng.KindXoshiro,
	"xoshiro":  rng.KindXoshiro,
	"mt19937":  rng.KindMT19937,
	"splitmix": rng.KindSplitMix,
}

// parseRunRequest extracts a RunRequest from either encoding.
func parseRunRequest(r *http.Request) (*RunRequest, error) {
	if r.Method == http.MethodPost {
		var req RunRequest
		if err := ReadJSON(r, &req, 1<<16); err != nil {
			return nil, fmt.Errorf("bad request body: %v", err)
		}
		return &req, nil
	}
	q := r.URL.Query()
	req := &RunRequest{Exp: q.Get("exp"), Kind: q.Get("kind")}
	for name, dst := range map[string]*int{"trials": &req.Trials, "scale": &req.Scale} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", name, v)
			}
			*dst = n
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", v)
		}
		req.Seed = &n
	}
	if v := q.Get("max_steps"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad max_steps %q", v)
		}
		req.MaxSteps = n
	}
	return req, nil
}

// resolve validates the request against the registry and the server's
// admission caps, returning the experiment and the run configuration.
func (s *Server) resolve(req *RunRequest) (sim.Experiment, sim.ExpConfig, error) {
	var zero sim.Experiment
	e, ok := sim.Lookup(req.Exp)
	if !ok {
		return zero, sim.ExpConfig{}, fmt.Errorf("%w %q (GET /v1/experiments lists the registry)", errNotFound, req.Exp)
	}
	kind, ok := kindNames[req.Kind]
	if !ok {
		return zero, sim.ExpConfig{}, fmt.Errorf("unknown RNG kind %q (want xoshiro, mt19937 or splitmix)", req.Kind)
	}
	switch {
	case req.Trials < 0 || req.Trials > s.opts.MaxTrials:
		return zero, sim.ExpConfig{}, fmt.Errorf("trials %d out of range [0, %d]", req.Trials, s.opts.MaxTrials)
	case req.Scale < 0 || req.Scale > s.opts.MaxScale:
		return zero, sim.ExpConfig{}, fmt.Errorf("scale %d out of range [0, %d]", req.Scale, s.opts.MaxScale)
	case req.MaxSteps < 0:
		return zero, sim.ExpConfig{}, fmt.Errorf("max_steps %d is negative", req.MaxSteps)
	}
	seed := uint64(defaultSeed)
	if req.Seed != nil {
		seed = *req.Seed
	}
	return e, sim.ExpConfig{
		Seed:     seed,
		Trials:   req.Trials,
		Scale:    req.Scale,
		Workers:  s.opts.RunWorkers,
		Kind:     kind,
		MaxSteps: req.MaxSteps,
	}, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status, source := s.serveRun(w, r)
	s.metrics.CountRequest(status)
	s.opts.Logf("reprod: %s %s client=%s status=%d cache=%s dur=%s",
		r.Method, r.URL.RequestURI(), clientKey(r.RemoteAddr), status, source, time.Since(t0).Round(time.Microsecond))
}

// serveRun is the run path; it returns the HTTP status it wrote and
// the cache disposition ("hit", "miss", "join", or "-" for rejects).
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request) (int, string) {
	if s.draining() {
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return http.StatusServiceUnavailable, "-"
	}
	if ok, retry := s.limiter.allow(clientKey(r.RemoteAddr)); !ok {
		s.metrics.RateLimited.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+1)))
		WriteError(w, http.StatusTooManyRequests, "rate limit exceeded; retry after %s", retry.Round(time.Millisecond))
		return http.StatusTooManyRequests, "-"
	}
	req, err := parseRunRequest(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest, "-"
	}
	e, cfg, err := s.resolve(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errNotFound) {
			status = http.StatusNotFound
		}
		WriteError(w, status, "%v", err)
		return status, "-"
	}
	key, err := e.RunKey(cfg)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest, "-"
	}
	ks := key.Encode()

	if body, ok := s.cache.get(ks); ok {
		s.metrics.CacheHits.Add(1)
		return s.writeResult(w, body, "hit"), "hit"
	}
	s.metrics.CacheMisses.Add(1)

	source := "miss"
	body, shared, err := s.flights.do(ks, func() ([]byte, error) {
		// A just-landed flight may have populated the cache between our
		// miss and becoming leader.
		if body, ok := s.cache.get(ks); ok {
			return body, nil
		}
		// Memory miss: consult the persistent store before computing. A
		// disk hit is re-validated bytes from a completed run — served
		// verbatim and promoted into the memory LRU.
		if s.store != nil {
			if body, ok := s.store.get(ks); ok {
				s.metrics.DiskHits.Add(1)
				s.cache.add(ks, body)
				s.metrics.CacheEntries.Store(int64(s.cache.len()))
				source = "disk"
				return body, nil
			}
		}
		return s.computeRun(r.Context(), e, cfg, ks)
	}, r.Context().Done())
	if shared {
		s.metrics.SharedRuns.Add(1)
		// Only the leader's closure ran; this request merely joined it.
		source = "join"
	}
	if err != nil {
		return s.writeRunError(w, err), "-"
	}
	return s.writeResult(w, body, source), source
}

// computeRun executes one sweep under the joined (request, timeout,
// drain) context and caches the response bytes on success.
func (s *Server) computeRun(reqCtx context.Context, e sim.Experiment, cfg sim.ExpConfig, key string) ([]byte, error) {
	if !s.slots.tryAcquire() {
		s.metrics.Saturated.Add(1)
		return nil, errSaturated
	}
	defer s.slots.release()

	ctx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	if s.opts.RunTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.opts.RunTimeout)
		defer cancel()
	}
	stop := context.AfterFunc(s.drainCtx, cancel)
	defer stop()

	s.metrics.InflightRuns.Add(1)
	t0 := time.Now()
	res, err := s.runExperiment(ctx, e, cfg)
	s.metrics.InflightRuns.Add(-1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	s.cache.add(key, body)
	s.metrics.CacheEntries.Store(int64(s.cache.len()))
	if s.store != nil {
		s.store.put(key, body)
	}
	s.metrics.CountRun(e.Name, time.Since(t0))
	return body, nil
}

// DiskCache reports the persistent store's state: the configured
// directory, whether the disk tier is active, and the boot error that
// degraded the server to memory-only (nil otherwise).
func (s *Server) DiskCache() (dir string, active bool, err error) {
	return s.opts.CacheDir, s.store != nil, s.diskErr
}

// writeResult serves the exact cached/computed bytes. The body is
// byte-identical whether it was computed by this request, another
// request's flight, or a cache hit — that is the serving invariant.
func (s *Server) writeResult(w http.ResponseWriter, body []byte, source string) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Reprod-Cache", source)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	return http.StatusOK
}

func (s *Server) writeRunError(w http.ResponseWriter, err error) int {
	var status int
	switch {
	case errors.Is(err, errSaturated):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errCancelled):
		// The client is usually gone (disconnect) or the server is
		// draining; the write is best-effort either way.
		status = http.StatusServiceUnavailable
	default:
		status = http.StatusInternalServerError
	}
	WriteError(w, status, "%v", err)
	return status
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		s.metrics.CountRequest(http.StatusServiceUnavailable)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	s.metrics.CountRequest(http.StatusOK)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

// ExperimentInfo is one registry row of GET /v1/experiments.
type ExperimentInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
	Salt uint64 `json:"salt"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	reg := sim.Registry()
	out := make([]ExperimentInfo, len(reg))
	for i, e := range reg {
		out[i] = ExperimentInfo{Name: e.Name, Desc: e.Desc, Salt: e.Salt}
	}
	WriteJSON(w, http.StatusOK, out)
	s.metrics.CountRequest(http.StatusOK)
}

func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"go_version":     runtime.Version(),
		"goroutines":     runtime.NumGoroutine(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cache_entries":  s.cache.len(),
		"inflight_runs":  s.metrics.InflightRuns.Load(),
		"draining":       s.draining(),
		"disk_active":    s.store != nil,
	}
	if s.opts.CacheDir != "" {
		stats["disk_dir"] = s.opts.CacheDir
		if s.store != nil {
			entries, size := s.store.stats()
			stats["disk_entries"] = entries
			stats["disk_bytes"] = size
			stats["disk_hits"] = s.metrics.DiskHits.Load()
			stats["disk_warm_entries"] = s.metrics.WarmedEntries.Load()
			stats["disk_corrupt_rejects"] = s.metrics.CorruptSpills.Load()
		} else if s.diskErr != nil {
			stats["disk_error"] = s.diskErr.Error()
		}
	}
	WriteJSON(w, http.StatusOK, stats)
	s.metrics.CountRequest(http.StatusOK)
}
