package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve-mix key space. Every client owns its keys, so the two
// clients never race on one key and no request joins another's flight.
var (
	// hotExps give each client's memory-hit keys: several experiments,
	// so body sizes vary.
	hotExps = []string{"eq3", "grw", "star", "hcube", "compare", "degseq", "lemma13", "cor4"}
	// diskExps are spilled during set-up. coldExps are the two cheapest
	// experiments at two trials (about 2-3 ms a run on a 2-vCPU host):
	// cold keys are fresh seeds of them, computed on request.
	diskExps = []string{"radzik", "eq3", "rulea", "bias", "eq4", "phases", "ablation", "growth"}
	coldExps = []string{"rulea", "eq4"}
	// invalidQueries are rejected by validation (400) or lookup (404).
	invalidQueries = []string{"exp=nosuch", "exp=eq3&trials=-1", "exp=eq3&scale=1000", "exp=eq3&kind=lcg", "exp=eq3&seed=x"}
)

const (
	serveClients = 2
	serveTrials  = 2
	// cacheEntries is below the key working set (8 hot + 64 disk keys):
	// disk keys cycle through the LRU and keep missing memory, while hot
	// keys, touched far more often, stay resident.
	cacheEntries  = 32
	diskPerClient = 32
	// spillBudget bounds the spill directory, as a long-running server's
	// would be: it holds the populated keys (about 150 KB) and the
	// newest few hundred cold spills, and evicts older cold spills. The
	// disk keys are read every round, so they stay at the LRU's front.
	// Without it, every cold miss adds a file the store keeps indexed,
	// and the process grows with the number of rounds a run fits in.
	spillBudget = 1 << 20
)

// roundMix is what one client sends in one round: a fixed count of
// each request class, in an order shuffled by the seed, so every round
// does the same work. The counts are assumed, not taken from observed
// traffic (reprod has no traffic record to take them from). They are
// sized so that the serving layer (HTTP, the LRU, the spill store)
// carries most of the clients' time: a cold miss costs about seventy
// memory hits, so at 1% cold misses the experiment runs take about a
// quarter of it (serve.cold_run_share in a traced run).
type roundMix struct{ hot, disk, cold, invalid int }

var (
	fullRound = roundMix{hot: 160, disk: 34, cold: 2, invalid: 4} // 80% / 17% / 1% / 2%
	tinyRound = roundMix{hot: 32, disk: 6, cold: 1, invalid: 1}
)

func (rm roundMix) total() int { return rm.hot + rm.disk + rm.cold + rm.invalid }

// The request classes of a round.
const (
	classHot = iota
	classDisk
	classCold
	classInvalid
)

// serveKey is one request of the mix.
type serveKey struct {
	query string
	exp   string
	seed  uint64
}

func (k serveKey) cfg() sim.ExpConfig {
	return sim.ExpConfig{Seed: k.seed, Trials: serveTrials, Scale: 1, Workers: 1}
}

// outcome is what a client saw for one request.
type outcome struct {
	class string // X-Reprod-Cache disposition, "invalid", or "error"
	lat   time.Duration
	bytes int
}

// serveMix boots an in-process reprod server over a pre-populated spill
// directory on a loopback listener and drives it with two closed-loop
// clients sending a seeded mix of memory hits, disk hits, cold misses
// and invalid requests.
func serveMix(e *env) error {
	perClient, rm := diskPerClient, fullRound
	if e.tiny {
		perClient, rm = 4, tinyRound
	}
	hot := make([][]serveKey, serveClients)
	disk := make([][]serveKey, serveClients)
	for c := range serveClients {
		for i := range len(hotExps) / serveClients {
			x := hotExps[c*len(hotExps)/serveClients+i]
			hot[c] = append(hot[c], newKey(x, derive(e.seed, 200+10*c+i)))
		}
		for i := range perClient {
			x := diskExps[(i+c)%len(diskExps)]
			disk[c] = append(disk[c], newKey(x, derive(e.seed, 1000+1000*c+i)))
		}
	}
	opts := serve.Options{
		CacheEntries:    cacheEntries,
		CacheDir:        e.dir + "/spill",
		CacheDiskBytes:  spillBudget,
		RunWorkers:      1,
		MaxInflightRuns: serveClients,
	}

	// Populate the spill directory through a first server, hot keys last
	// so the boot warm-up loads them, and check every body against an
	// in-process Experiment.Run of the same key.
	t0 := time.Now()
	refs := map[string][]byte{}
	pop := serve.New(opts)
	var keys []serveKey
	for c := range serveClients {
		keys = append(keys, disk[c]...)
	}
	for c := range serveClients {
		keys = append(keys, hot[c]...)
	}
	for _, k := range keys {
		rec := httptest.NewRecorder()
		pop.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/run?"+k.query, nil))
		e.check(rec.Code == http.StatusOK, "populate %s: status %d", k.query, rec.Code)
		refs[k.query] = rec.Body.Bytes()
		e.inProcess(k, refs[k.query])
	}
	pop.Drain()
	e.detail["populate_s"] = time.Since(t0).Seconds()

	var srv *serve.Server
	setup, err := setupTimes(9, func() error {
		if srv != nil {
			srv.Drain()
		}
		srv = serve.New(opts)
		if _, active, err := srv.DiskCache(); !active {
			return fmt.Errorf("spill directory unusable: %v", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	bootSpills := srv.Metrics().DiskEntries.Load()
	e.detail["boot_spill_bytes"] = srv.Metrics().DiskBytes.Load()
	e.check(bootSpills == int64(len(keys)), "boot found %d spills, want %d", bootSpills, len(keys))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		srv.Drain()
	}()
	base := "http://" + ln.Addr().String()
	clients := make([]*http.Client, serveClients)
	for c := range clients {
		tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tp.CloseIdleConnections()
		clients[c] = &http.Client{Transport: tp, Timeout: time.Minute}
	}
	m := &mix{e: e, base: base, clients: clients, hot: hot, disk: disk, refs: refs, rm: rm,
		lat: map[string]*hist{}, counts: map[string]int{}, cold: map[string]serveKey{}, coldBody: map[string][]byte{}}
	// Warm-up, not measured: every hot key once, so hot keys are in
	// memory and connections are open.
	for c := range serveClients {
		for _, k := range hot[c] {
			if _, err := m.fetch(c, k.query); err != nil {
				return err
			}
		}
	}
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	walls, err := repeat(budget, func() (time.Duration, error) { return m.round(nil) })
	if err != nil {
		return err
	}
	m.verifyCold()

	var total time.Duration
	for _, w := range walls {
		total += w
	}
	all := m.latencies("hit", "disk", "miss", "join", "invalid")
	e.detail["round_s"] = summarize(durs(walls, time.Second))
	e.detail["latency_us"] = all.summary()
	e.detail["hit_us"] = m.latencies("hit").summary()
	e.detail["disk_hit_us"] = m.latencies("disk").summary()
	e.detail["cold_ms"] = m.latencies("miss").summary().scaled(1e-3)
	e.detail["qps"] = float64(all.n) / total.Seconds()
	e.detail["requests"] = m.counts
	e.detail["cold_run_share"] = m.runShare()
	if !e.traced {
		e.setE2E("wall_s", medianDur(walls).Seconds())
		e.setE2E("setup_s", setup.Seconds())
		// Every round sends the same requests, so the median round gives
		// the rate, as the median pass does on the other workloads.
		e.setE2E("throughput_per_s", float64(serveClients*rm.total())/medianDur(walls).Seconds())
		// The median request, taken exactly as the median over rounds of
		// each round's median (the histogram's would step by its buckets).
		e.setE2E("latency_us", quantile(m.roundMedians, 0.5))
		e.setE2E("peak_rss_mb", peakRSS())
		return nil
	}

	// Traced run: a span per request; the server-side split comes from
	// /metrics deltas and an in-process handler probe.
	tr := newTracer()
	clear(m.lat)
	clear(m.counts)
	m.runSum, m.spills, m.diskHits, m.bytesOut = 0, 0, 0, 0
	twalls, err := repeat(budget, func() (time.Duration, error) { return m.round(tr) })
	if err != nil {
		return err
	}
	m.verifyCold()
	k := float64(len(twalls))
	e.setLayer("trace.overhead_pct", 100*(medianDur(twalls).Seconds()/medianDur(walls).Seconds()-1))
	for _, c := range []string{"hit", "disk", "miss", "join", "invalid"} {
		e.setLayer("serve.requests."+c, float64(m.counts[c])/k)
	}
	handler := e.handlerHit(srv, hot[0][0].query, refs)
	e.setLayer("serve.handler_hit_us", handler)
	e.setLayer("http.transport_us", m.latencies("hit").quantile(0.5)-handler)
	e.setLayer("serve.run_s", m.runSum/k)
	e.setLayer("serve.cold_run_share", m.runShare())
	e.setLayer("serve.spill_writes", m.spills/k)
	e.setLayer("serve.disk_hits", m.diskHits/k)
	e.setLayer("serve.boot_spills", float64(bootSpills))
	e.setLayer("serve.bytes_out", float64(m.bytesOut)/k)
	e.zeroLayers()
	return tr.write(fmt.Sprintf("serve-mix-seed%d", e.seed))
}

func newKey(exp string, seed uint64) serveKey {
	return serveKey{query: fmt.Sprintf("exp=%s&seed=%d&trials=%d&scale=1", exp, seed, serveTrials), exp: exp, seed: seed}
}

// inProcess checks a served body against Experiment.Run of its key.
func (e *env) inProcess(k serveKey, body []byte) {
	x, ok := sim.Lookup(k.exp)
	if !ok {
		e.op(fmt.Errorf("unknown experiment %q", k.exp))
		return
	}
	res, err := x.Run(context.Background(), k.cfg(), sim.RunOptions{})
	if err != nil {
		e.op(err)
		return
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		e.op(err)
		return
	}
	e.check(bytes.Equal(buf.Bytes(), body), "%s: served body differs from in-process Experiment.Run", k.query)
}

// mix is the closed-loop client side of serve-mix.
type mix struct {
	e       *env
	base    string
	clients []*http.Client
	hot     [][]serveKey
	disk    [][]serveKey
	refs    map[string][]byte
	rm      roundMix

	mu       sync.Mutex // guards e's counters and coldBody during a round
	rounds   int
	diskNext [serveClients]int
	coldNext [serveClients]int
	lat      map[string]*hist // µs per request, by class
	// roundMedians is each round's median request latency, µs.
	roundMedians []float64
	counts       map[string]int
	// cold samples fresh keys for an in-process check after the timed
	// rounds; coldBody holds their served bodies.
	cold     map[string]serveKey
	coldBody map[string][]byte
	// Server counter deltas summed over the rounds.
	runSum, spills, diskHits float64
	bytesOut                 int64
}

// latencies returns the request latencies of the given classes, in µs.
func (m *mix) latencies(classes ...string) *hist {
	out := &hist{}
	for _, c := range classes {
		if h := m.lat[c]; h != nil {
			out.merge(h)
		}
	}
	return out
}

// runShare is the share of the clients' summed request time that the
// server spent running experiments (reprod_run_seconds_sum).
func (m *mix) runShare() float64 {
	total := m.latencies("hit", "disk", "miss", "join", "invalid").sum // µs
	return m.runSum / max(total/1e6, 1e-9)
}

// round sends the request mix from each client concurrently, each
// client waiting for its reply before the next request, and reconciles
// the clients' counts with the server's /metrics counters.
func (m *mix) round(tr *tracer) (time.Duration, error) {
	queries := make([][]string, serveClients)
	for c := range serveClients {
		r := rand.New(rand.NewSource(int64(derive(m.e.seed, 1<<20+m.rounds*serveClients+c))))
		var order []int
		for class, n := range []int{m.rm.hot, m.rm.disk, m.rm.cold, m.rm.invalid} {
			for range n {
				order = append(order, class)
			}
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, class := range order {
			var q string
			switch class {
			case classHot:
				q = m.hot[c][r.Intn(len(m.hot[c]))].query
			case classDisk:
				q = m.disk[c][m.diskNext[c]%len(m.disk[c])].query
				m.diskNext[c]++
			case classCold:
				seq := m.coldNext[c]
				m.coldNext[c]++
				k := newKey(coldExps[seq%len(coldExps)], derive(m.e.seed, 1<<30+seq*serveClients+c))
				if len(m.cold) < 8*serveClients && seq%8 == 0 {
					m.cold[k.query] = k
				}
				q = k.query
			default:
				q = invalidQueries[r.Intn(len(invalidQueries))]
			}
			queries[c] = append(queries[c], q)
		}
	}
	m.rounds++
	before, err := scrape(m.clients[0], m.base)
	if err != nil {
		return 0, err
	}
	results := make([][]outcome, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries[c] {
				s := tr.begin("request", -1, tr.newUnit())
				o, err := m.fetch(c, q)
				tr.end(s, int64(o.bytes))
				if err != nil {
					errs[c] = err
					return
				}
				results[c] = append(results[c], o)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	after, err := scrape(m.clients[0], m.base)
	if err != nil {
		return 0, err
	}
	got := map[string]int{}
	var lats []float64
	for c := range results {
		for _, o := range results[c] {
			lats = append(lats, o.lat.Seconds()*1e6)
			got[o.class]++
			m.bytesOut += int64(o.bytes)
			h := m.lat[o.class]
			if h == nil {
				h = &hist{}
				m.lat[o.class] = h
			}
			h.add(o.lat.Seconds() * 1e6)
		}
	}
	for k, v := range got {
		m.counts[k] += v
	}
	m.roundMedians = append(m.roundMedians, quantile(lats, 0.5))
	m.runSum += after["reprod_run_seconds_sum"] - before["reprod_run_seconds_sum"]
	m.spills += after["reprod_spill_writes_total"] - before["reprod_spill_writes_total"]
	m.diskHits += after["reprod_disk_hits_total"] - before["reprod_disk_hits_total"]
	m.reconcile(before, after, got)
	return wall, nil
}

// fetch sends one request and waits for its reply. A valid query must
// answer 200 with its key's reference bytes (when it has them), an
// invalid one 400 or 404; anything else fails the request.
func (m *mix) fetch(c int, q string) (outcome, error) {
	t0 := time.Now()
	resp, err := m.clients[c].Get(m.base + "/v1/run?" + q)
	if err != nil {
		return outcome{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{lat: time.Since(t0), bytes: len(body)}
	if err != nil {
		return o, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	invalid := slices.Contains(invalidQueries, q)
	switch {
	case resp.StatusCode == http.StatusOK && !invalid:
		o.class = resp.Header.Get("X-Reprod-Cache")
		ref, ok := m.refs[q]
		if _, sampled := m.cold[q]; sampled && o.class == "miss" {
			m.coldBody[q] = body
		}
		m.e.check(!ok || bytes.Equal(ref, body), "%s: %s body differs from the cold body", q, o.class)
	case (resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusNotFound) && invalid:
		o.class = "invalid"
		m.e.op(nil)
	default:
		o.class = "error"
		m.e.op(fmt.Errorf("%s: status %d: %s", q, resp.StatusCode, bytes.TrimSpace(body)))
	}
	return o, nil
}

// reconcile checks the clients' counts against the server's counter
// deltas over one round.
func (m *mix) reconcile(before, after map[string]float64, got map[string]int) {
	delta := func(name string) int { return int(after[name] - before[name]) }
	fourxx := delta(`reprod_requests_total{code="400"}`) + delta(`reprod_requests_total{code="404"}`)
	checks := []struct {
		what       string
		server, cl int
	}{
		{`reprod_requests_total{code="200"}`, delta(`reprod_requests_total{code="200"}`), got["hit"] + got["disk"] + got["miss"] + got["join"]},
		{`reprod_requests_total{code="4xx"}`, fourxx, got["invalid"]},
		{"reprod_cache_hits_total", delta("reprod_cache_hits_total"), got["hit"]},
		{"reprod_cache_misses_total", delta("reprod_cache_misses_total"), got["disk"] + got["miss"] + got["join"]},
		{"reprod_disk_hits_total", delta("reprod_disk_hits_total"), got["disk"]},
		{"reprod_spill_writes_total", delta("reprod_spill_writes_total"), got["miss"]},
		{"reprod_run_seconds_count", delta("reprod_run_seconds_count"), got["miss"]},
		{"reprod_shared_runs_total", delta("reprod_shared_runs_total"), got["join"]},
	}
	for _, c := range checks {
		m.e.check(c.server == c.cl, "round %d: %s moved by %d, clients counted %d", m.rounds, c.what, c.server, c.cl)
	}
}

// verifyCold checks a sample of the fresh keys served cold against
// in-process runs, after the timed rounds.
func (m *mix) verifyCold() {
	for _, q := range sortedKeys(m.cold) {
		if body, ok := m.coldBody[q]; ok {
			m.e.inProcess(m.cold[q], body)
		}
	}
	clear(m.cold)
	clear(m.coldBody)
}

// handlerHit is the median of in-process memory hits through
// Handler().ServeHTTP: the serving layer without TCP.
func (e *env) handlerHit(srv *serve.Server, query string, refs map[string][]byte) float64 {
	var lat []float64
	h := srv.Handler()
	for range 2000 {
		req := httptest.NewRequest("GET", "/v1/run?"+query, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, float64(time.Since(t0))/1e3)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), refs[query]) {
			e.op(fmt.Errorf("%s: in-process hit status %d or body differs", query, rec.Code))
			return 0
		}
	}
	e.op(nil)
	return quantile(lat, 0.5)
}

// scrape reads the server's /metrics into name{labels} → value.
func scrape(cl *http.Client, base string) (map[string]float64, error) {
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
