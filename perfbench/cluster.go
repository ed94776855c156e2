package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsketch/internal/router"
)

// Cluster workloads run dsserve backends as child processes behind an
// internal/router Router served on loopback inside this process, and
// drive the router over HTTP with 1000-line /insertbatch requests of a
// Zipf-1.0 stream, reading 16 keys with an exact /query every few
// batches.

const (
	batchLines   = 1000
	queryKeys    = 16
	backendWidth = 4096 // dsserve's default -width
	topK         = 10
	// probeInterval replaces dsrouter's 1s default health-probe period
	// (see routerConfig).
	probeInterval = 50 * time.Millisecond
)

// clusterShape fixes one cluster workload's parameters.
type clusterShape struct {
	rebalance  bool
	conns      int
	queryEvery int // batches per /query, per connection
	cycles     int // joins; the run makes cycles-1 leaves between them
}

// cluster is one running cluster: backends (the first two are members
// from the start; a third, in the rebalance workload, joins and leaves)
// and the router.
type cluster struct {
	backends []*backend
	rt       *router.Router
	rtTrans  *http.Transport
	srv      *http.Server
	srvDone  chan error
	url      string
	dir      string
}

// routerConfig is cmd/dsrouter's default configuration, except for the
// health-probe period: a joiner must pass two probes before data moves
// to it, and at dsrouter's 1s period that wait (1–2.5s, set by where the
// join falls in the jittered probe cycle) would swamp the move itself.
func routerConfig(nodes []string, transport http.RoundTripper) router.Config {
	return router.Config{
		Nodes:    nodes,
		Replicas: 64,
		Health: router.HealthConfig{
			Interval: probeInterval,
			FailK:    3,
			ReadyM:   2,
			Seed:     1,
		},
		Retry: router.RetryConfig{
			Max:         2,
			Base:        10 * time.Millisecond,
			Cap:         500 * time.Millisecond,
			BudgetRatio: 0.1,
			Seed:        1,
		},
		Buffer: router.BufferConfig{Capacity: 65536, Policy: "shed"},
		Rebalance: router.RebalanceConfig{
			PairTimeout:    2 * time.Minute,
			MaxAttempts:    3,
			PullChunkBytes: 256 << 10,
		},
		ReqTimeout:   2 * time.Second,
		BlockTimeout: 5 * time.Second,
		Transport:    transport,
		Logf: func(format string, args ...any) {
			log.Printf(format, args...)
		},
	}
}

// startCluster brings a cluster up and returns once every backend's
// /healthz serves and every router member is up.
func startCluster(ctx context.Context, o options, shape clusterShape, tr *tracer) (c *cluster, err error) {
	c = &cluster{}
	c.dir, err = os.MkdirTemp(o.workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = c.close() // the set-up error is the one to report
			c = nil
		}
	}()
	n := 2
	if shape.rebalance {
		n = 3
	}
	type started struct {
		b   *backend
		err error
	}
	res := make([]started, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		var args []string
		if shape.rebalance {
			dir := filepath.Join(c.dir, fmt.Sprintf("ckpt-%d", i))
			if err := os.Mkdir(dir, 0o755); err != nil {
				return c, err
			}
			args = []string{"-checkpoint-dir", dir}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i].b, res[i].err = startBackend(ctx, o.dsserve, backendAddr(i), args...)
			if res[i].err != nil && ctx.Err() == nil {
				// The preferred port may have been taken since the probe.
				res[i].b, res[i].err = startBackend(ctx, o.dsserve, "127.0.0.1:0", args...)
			}
		}()
	}
	wg.Wait()
	for _, r := range res {
		if r.b != nil {
			c.backends = append(c.backends, r.b)
		}
	}
	for _, r := range res {
		if r.err != nil {
			return c, r.err
		}
	}
	c.rtTrans = http.DefaultTransport.(*http.Transport).Clone()
	var transport http.RoundTripper = c.rtTrans
	if tr != nil {
		transport = traceTransport{t: tr, base: c.rtTrans}
	}
	c.rt, err = router.New(routerConfig([]string{c.backends[0].url, c.backends[1].url}, transport))
	if err != nil {
		return c, err
	}
	c.rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	c.url = "http://" + ln.Addr().String()
	c.srv = &http.Server{Handler: traceHandler(tr, c.rt.Handler()), ReadHeaderTimeout: 5 * time.Second}
	c.srvDone = make(chan error, 1)
	go func() { c.srvDone <- c.srv.Serve(ln) }()
	for _, m := range c.rt.Members() {
		if !c.rt.NodeUp(m) {
			return c, fmt.Errorf("router member %s is not up", m)
		}
	}
	return c, waitHealthy(ctx, c.url+"/healthz")
}

// close stops the router and every backend and removes the cluster's
// directory. It reports the first teardown failure.
func (c *cluster) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(c.srv.Shutdown(ctx))
		cancel()
		<-c.srvDone
	}
	if c.rt != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(c.rt.Close(ctx))
		cancel()
	}
	if c.rtTrans != nil {
		c.rtTrans.CloseIdleConnections()
	}
	for _, b := range c.backends {
		keep(b.stop())
	}
	if c.dir != "" {
		keep(os.RemoveAll(c.dir))
	}
	return first
}

// conn is one client connection's state.
type conn struct {
	client *http.Client
	trans  *http.Transport
	sub    substream
	acked  atomic.Int64 // entries acknowledged so far
	_      [56]byte
	// batchEnds records when each acknowledged batch completed.
	batchEnds []time.Time
	insertLat []time.Duration
	queryLat  []time.Duration
	batches   int64
	queries   int64
	failed    int64
}

func newConn(sub substream) *conn {
	t := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: t}, trans: t, sub: sub}
}

// do sends one request, returning the status, headers and body.
func (cn *conn) do(ctx context.Context, tr *tracer, name, method, u string, body []byte, n int64) (int, http.Header, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	id := tr.newID()
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := cn.client.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing to lose
	d := time.Since(start)
	if tr != nil {
		tr.add(span{ID: id, Name: name, Start: int64(start.Sub(tr.epoch)), End: tr.now(), N: n, Bytes: int64(len(body))})
	}
	return resp.StatusCode, resp.Header, b, d, err
}

// queryURL builds a /query URL for keys.
func queryURL(base string, keys []uint64) string {
	vals := url.Values{}
	for _, k := range keys {
		vals.Add("key", strconv.FormatUint(k, 10))
	}
	return base + "/query?" + vals.Encode()
}

// parseCounts parses a multi-key /query answer: one "key count" line per
// requested key, in order.
func parseCounts(body []byte, keys []uint64) ([]uint64, error) {
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != len(keys) {
		return nil, fmt.Errorf("want %d answer lines, got %d: %q", len(keys), len(lines), body)
	}
	out := make([]uint64, len(keys))
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) != 2 || f[0] != strconv.FormatUint(keys[i], 10) {
			return nil, fmt.Errorf("answer line %d %q does not match key %d", i, line, keys[i])
		}
		v, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("answer line %q: %w", line, err)
		}
		out[i] = v
	}
	return out, nil
}

// degraded reports whether a router answer is partial.
func degraded(h http.Header) bool {
	return h.Get("X-Degraded-Shards") != "" || h.Get("X-Degraded-Keys") != ""
}

// ingest is one connection's closed loop: post a batch, and every
// queryEvery batches read 16 of the keys just sent. Samples and spans
// cover the measured period only.
func (cn *conn) ingest(ctx context.Context, o *outcome, tr *tracer, base string, queryEvery int, ph *phases) {
	var pos int64
	buf := make([]byte, 0, batchLines*21)
	keys := make([]uint64, queryKeys)
	for b := 1; !ph.stop.Load() && ctx.Err() == nil; b++ {
		measuring := ph.measuring.Load()
		t := tr
		if !measuring {
			t = nil
		}
		buf = buf[:0]
		for i := int64(0); i < batchLines; i++ {
			buf = strconv.AppendUint(buf, cn.sub.at(pos+i), 10)
			buf = append(buf, '\n')
		}
		status, h, body, d, err := cn.do(ctx, t, "client.insertbatch", http.MethodPost, base+"/insertbatch", buf, batchLines)
		if err != nil || status != http.StatusAccepted || h.Get("X-Accepted") != strconv.Itoa(batchLines) {
			if ctx.Err() != nil {
				return
			}
			cn.failed++
			o.violate("insertbatch: status %d X-Accepted %q err %v: %s", status, h.Get("X-Accepted"), err, body)
			return
		}
		pos += batchLines
		cn.acked.Store(pos)
		cn.batches++
		if measuring {
			cn.insertLat = append(cn.insertLat, d)
			cn.batchEnds = append(cn.batchEnds, time.Now())
		}
		if b%queryEvery != 0 {
			continue
		}
		for i := range keys {
			keys[i] = cn.sub.at(pos - batchLines + int64(i*61%batchLines))
		}
		status, h, body, d, err = cn.do(ctx, t, "client.query", http.MethodGet, queryURL(base, keys), nil, queryKeys)
		cn.queries++
		if err == nil && status == http.StatusOK && !degraded(h) {
			_, err = parseCounts(body, keys)
		} else if err == nil {
			err = fmt.Errorf("status %d degraded=%v: %s", status, degraded(h), body)
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			cn.failed++
			o.violate("query: %v", err)
			return
		}
		if measuring {
			cn.queryLat = append(cn.queryLat, d)
		}
	}
}

// rebalancer runs the rebalance workload's joins and leaves.
type rebalancer struct {
	joins, leaves []time.Duration
	windows       [][2]time.Time // [start, end] of every Join/Leave
	ckptMs        []float64
	ckptBytes     []float64
	lastGen       map[string]uint64
}

// run alternates Join and Leave of the third backend, starting each at
// an even share of the run (or as soon as the previous one returns),
// ending on a join.
func (rb *rebalancer) run(ctx context.Context, o *outcome, tr *tracer, c *cluster, shape clusterShape, seconds float64) {
	node := c.backends[2].url
	ops := 2*shape.cycles - 1
	gap := time.Duration(seconds * float64(time.Second) / float64(ops+1))
	start := time.Now()
	for i := 0; i < ops; i++ {
		if wait := time.Until(start.Add(time.Duration(i+1) * gap)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		join := i%2 == 0
		name := "rebalance.leave"
		if join {
			name = "rebalance.join"
		}
		id := tr.newID()
		t0 := time.Now()
		var err error
		if join {
			err = c.rt.Join(withSpan(ctx, id), node)
		} else {
			err = c.rt.Leave(withSpan(ctx, id), node)
		}
		t1 := time.Now()
		o.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			o.failed++
			o.violate("%s: %v", name, err)
			return
		}
		if tr != nil {
			tr.add(span{ID: id, Name: name, Start: int64(t0.Sub(tr.epoch)), End: int64(t1.Sub(tr.epoch))})
			rb.readCheckpoints(ctx, c)
		}
		log.Printf("%s took %v", name, t1.Sub(t0))
		rb.windows = append(rb.windows, [2]time.Time{t0, t1})
		if join {
			rb.joins = append(rb.joins, t1.Sub(t0))
		} else {
			rb.leaves = append(rb.leaves, t1.Sub(t0))
		}
	}
}

// readCheckpoints records every checkpoint the backends took since the
// last look, from their /stats (traced runs only).
func (rb *rebalancer) readCheckpoints(ctx context.Context, c *cluster) {
	if rb.lastGen == nil {
		rb.lastGen = map[string]uint64{}
	}
	for _, b := range c.backends {
		st, err := backendStats(ctx, b.url)
		if err != nil {
			continue
		}
		gen := uint64(st["last_checkpoint_gen"])
		if gen != 0 && gen != rb.lastGen[b.url] {
			rb.lastGen[b.url] = gen
			rb.ckptMs = append(rb.ckptMs, st["last_checkpoint_duration"]*1e3)
			rb.ckptBytes = append(rb.ckptBytes, st["last_checkpoint_bytes"])
		}
	}
}

// backendStats reads a dsserve /stats page into name → value; durations
// are in seconds.
func backendStats(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing to lose
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, tok := range strings.Fields(string(body)) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		} else if d, err := time.ParseDuration(v); err == nil {
			out[k] = d.Seconds()
		}
	}
	return out, nil
}

// parseTopK parses router /topk lines "%2d. key=%d count=%d (±%d)".
func parseTopK(body []byte) (keys, counts []uint64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rank int
		var k, n, e uint64
		if _, err := fmt.Sscanf(line, "%d. key=%d count=%d (±%d)", &rank, &k, &n, &e); err != nil {
			return nil, nil, fmt.Errorf("topk line %q: %w", line, err)
		}
		keys, counts = append(keys, k), append(counts, n)
	}
	return keys, counts, sc.Err()
}

func runCluster(ctx context.Context, o options, rebalance bool) (*outcome, error) {
	if o.dsserve == "" {
		return nil, fmt.Errorf("the cluster workloads need -dsserve")
	}
	out := &outcome{e2e: map[string]float64{}, counters: map[string]float64{}}
	if o.trace {
		out.tracer = newTracer()
	}
	tr := out.tracer
	shape := clusterShape{conns: 2, queryEvery: 1}
	if rebalance {
		shape = clusterShape{rebalance: true, conns: 1, queryEvery: 1, cycles: 3}
	}
	streamLen, setupReps := 1<<21, 9
	if o.tiny {
		streamLen, setupReps, shape.cycles = 1<<14, 1, min(shape.cycles, 2)
	}
	stream := zipfStream(o.seed, streamLen, 1<<20, 1.0)
	subs := split(stream, shape.conns)

	// Set-up: bring the cluster up several times, keep the last one.
	var setups []time.Duration
	var c *cluster
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cl, err := startCluster(ctx, o, shape, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if i < setupReps-1 {
			if err := cl.close(); err != nil {
				return nil, err
			}
		} else {
			c = cl
		}
	}
	out.e2e["setup_s"] = medianSeconds(setups)
	closed := false
	defer func() {
		if !closed {
			_ = c.close() // an earlier error is already being reported
		}
	}()

	warm := warmup
	if o.tiny {
		warm = 100 * time.Millisecond
	}
	var ph phases
	conns := make([]*conn, shape.conns)
	for i := range conns {
		conns[i] = newConn(subs[i])
		defer conns[i].trans.CloseIdleConnections()
	}
	acked := func() int64 {
		var n int64
		for _, cn := range conns {
			n += cn.acked.Load()
		}
		return n
	}
	var wg sync.WaitGroup
	for _, cn := range conns {
		cn := cn
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn.ingest(ctx, out, tr, c.url, shape.queryEvery, &ph)
		}()
	}
	// Warm up, then measure for the run's length; the rebalance
	// workload's joins and leaves fall inside the measured period.
	sleep(ctx, warm)
	base, start := acked(), time.Now()
	ph.measuring.Store(true)
	var rb rebalancer
	if rebalance {
		rb.run(ctx, out, tr, c, shape, o.seconds)
	}
	sleep(ctx, time.Until(start.Add(time.Duration(o.seconds*float64(time.Second)))))
	ph.stop.Store(true)
	wg.Wait()
	if ctx.Err() != nil {
		return out, nil
	}
	// Barrier: the final /topk snapshot quiesces every backend.
	bc := conns[0]
	status, h, topBody, _, err := bc.do(ctx, tr, "client.topk", http.MethodGet, fmt.Sprintf("%s/topk?k=%d", c.url, topK), nil, 0)
	end := time.Now()
	out.attempted++
	if err != nil || status != http.StatusOK || degraded(h) {
		out.failed++
		out.violate("final topk: status %d err %v: %s", status, err, topBody)
	}

	final := make([]int64, len(conns))
	var sent int64
	var insertLat, queryLat []time.Duration
	for i, cn := range conns {
		final[i] = cn.acked.Load()
		sent += final[i]
		insertLat = append(insertLat, cn.insertLat...)
		queryLat = append(queryLat, cn.queryLat...)
		out.attempted += cn.batches + cn.queries
		out.failed += cn.failed
	}
	out.e2e["ingest_rate"] = float64(sent-base) / end.Sub(start).Seconds() / 1e6
	out.e2e["insert_p50_us"] = quantile(durations(insertLat, time.Microsecond), 0.5)
	out.e2e["insert_p99_us"] = quantile(durations(insertLat, time.Microsecond), 0.99)
	out.e2e["query_p50_us"] = quantile(durations(queryLat, time.Microsecond), 0.5)
	out.e2e["query_p99_us"] = quantile(durations(queryLat, time.Microsecond), 0.99)
	if !o.tiny {
		warnSamples("query", len(queryLat))
	}

	// Router ledger.
	rm := c.rt.Metrics()
	if rm.InsertEntries != uint64(sent) || rm.EntriesApplied != uint64(sent) {
		out.violate("router ledger: insert_entries=%d entries_applied=%d, entries sent %d", rm.InsertEntries, rm.EntriesApplied, sent)
	}
	if rm.DegradedQueries != 0 {
		out.violate("router answered %d degraded queries", rm.DegradedQueries)
	}
	if rebalance {
		if rm.StagedEntries != rm.DrainedEntries {
			out.violate("rebalance ledger: staged %d != drained %d", rm.StagedEntries, rm.DrainedEntries)
		}
		if rm.EntriesBuffered != rm.BufferReplayed+rm.BufferDropped+rm.BufferRetired {
			out.violate("buffer ledger: buffered %d != replayed %d + dropped %d + retired %d",
				rm.EntriesBuffered, rm.BufferReplayed, rm.BufferDropped, rm.BufferRetired)
		}
		if want := 2*shape.cycles - 1; len(rb.joins)+len(rb.leaves) != want {
			out.violate("%d of %d joins and leaves completed", len(rb.joins)+len(rb.leaves), want)
		}
	}

	// Reference answers: the probe set plus the reported top keys.
	topKeys, topCounts, err := parseTopK(topBody)
	if err != nil {
		out.violate("%v", err)
	}
	probes := probeSet(o.seed, stream, 100, 900)
	ref := newCounter(subs, append(append([]uint64{}, probes...), topKeys...))
	bound := cmBound(uint64(sent), backendWidth)
	var over float64
	probed := 0
	for i := 0; i < len(probes); i += 100 {
		keys := probes[i:min(i+100, len(probes))]
		status, h, body, _, err := bc.do(ctx, nil, "client.probe", http.MethodGet, queryURL(c.url, keys), nil, int64(len(keys)))
		out.attempted++
		if err == nil && (status != http.StatusOK || degraded(h)) {
			err = fmt.Errorf("status %d degraded=%v: %s", status, degraded(h), body)
		}
		var ests []uint64
		if err == nil {
			ests, err = parseCounts(body, keys)
		}
		if err != nil {
			out.failed++
			out.violate("probe query: %v", err)
			continue
		}
		for j, k := range keys {
			exact := ref.total(k, final)
			if ests[j] < exact {
				out.violate("probe key %d estimated %d below its exact count %d", k, ests[j], exact)
				continue
			}
			over += float64(ests[j] - exact)
			probed++
		}
	}
	if probed > 0 {
		out.e2e["overcount_mean"] = over / float64(probed) / float64(sent) * 1e6
	}
	checkTopK(out, ref, final, probes[:100], topKeys, topCounts, bound)

	// Per-layer counters, then peak memory, then teardown.
	out.counters["router.retries"] = float64(rm.Retries)
	out.counters["router.degraded_queries"] = float64(rm.DegradedQueries)
	out.counters["rebalance.staged_entries"] = float64(rm.StagedEntries)
	out.counters["rebalance.pairs"] = float64(rm.RebalancePairs)
	if err := backendCounters(ctx, out.counters, c, sent); err != nil {
		out.violate("backend stats: %v", err)
	}
	if rebalance {
		out.counters["rebalance.ingest_dip"] = ingestDip(conns, rb.windows, start, end)
		out.counters["persist.checkpoint_ms"] = mean(rb.ckptMs)
		out.counters["persist.checkpoint_bytes"] = mean(rb.ckptBytes)
	}
	rss := 0.0
	for _, b := range c.backends {
		v, err := procStatusMB(b.pid(), "VmHWM")
		if err != nil {
			return nil, err
		}
		rss += v
	}
	out.e2e["server_rss_mb"] = rss
	closed = true
	if err := c.close(); err != nil {
		out.violate("teardown: %v", err)
	}
	return out, nil
}

// checkTopK checks the router's final /topk against exact counts: no
// reported count is below the key's exact count, and every exact top
// key that leads the (k+1)-th exact key by more than the Count-Min
// bound is reported.
func checkTopK(o *outcome, ref *counter, acked []int64, hot, keys, counts []uint64, bound uint64) {
	for i, k := range keys {
		if exact := ref.total(k, acked); counts[i] < exact {
			o.violate("topk reports key %d at %d, below its exact count %d", k, counts[i], exact)
		}
	}
	type kc struct {
		key   uint64
		exact uint64
	}
	exact := make([]kc, len(hot))
	for i, k := range hot {
		exact[i] = kc{k, ref.total(k, acked)}
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i].exact > exact[j].exact })
	if len(exact) <= topK {
		return
	}
	reported := map[uint64]bool{}
	for _, k := range keys {
		reported[k] = true
	}
	next := exact[topK].exact
	for _, e := range exact[:topK] {
		if e.exact-next > bound && !reported[e.key] {
			o.violate("topk misses key %d (exact %d, next %d, bound %d)", e.key, e.exact, next, bound)
		}
	}
}

// backendCounters sums the delegation and dsserve counters of the member
// backends' /stats pages.
func backendCounters(ctx context.Context, m map[string]float64, c *cluster, sent int64) error {
	var sum = map[string]float64{}
	var enqP99, depth, batch float64
	for _, b := range c.backends {
		st, err := backendStats(ctx, b.url)
		if err != nil {
			return err
		}
		for k, v := range st {
			sum[k] += v
		}
		enqP99 = max(enqP99, st["enqueue_p99"]*1e9)
		depth += st["depth_mean"] * st["batches"]
		batch += st["batch_mean"] * st["batches"]
	}
	m["dsserve.enqueue_ns_p99"] = enqP99
	m["dsserve.depth_mean"] = ratio(depth, sum["batches"])
	m["dsserve.batch_mean"] = ratio(batch, sum["batches"])
	m["dsserve.backpressure"] = sum["backpressure"]
	queries := sum["direct_queries"] + sum["delegated_posts"]
	m["delegation.inserts_per_drain"] = ratio(sum["pool_inserts"], sum["drains"])
	m["delegation.delegated_share"] = ratio(sum["delegated_posts"], queries)
	m["delegation.searches_per_query"] = ratio(sum["searches"], queries)
	m["delegation.squash_share"] = ratio(sum["squashed"], sum["served_queries"])
	m["sketch.memory_bytes"] = sum["memory_bytes"]
	return nil
}

// ingestDip is the ingest rate while a Join or Leave runs divided by the
// rate outside them.
func ingestDip(conns []*conn, windows [][2]time.Time, start, end time.Time) float64 {
	var in, inDur, out, outDur float64
	inside := func(t time.Time) bool {
		for _, w := range windows {
			if !t.Before(w[0]) && !t.After(w[1]) {
				return true
			}
		}
		return false
	}
	for _, w := range windows {
		inDur += w[1].Sub(w[0]).Seconds()
	}
	outDur = end.Sub(start).Seconds() - inDur
	for _, cn := range conns {
		for _, t := range cn.batchEnds {
			if inside(t) {
				in += batchLines
			} else {
				out += batchLines
			}
		}
	}
	return ratio(ratio(in, inDur), ratio(out, outDur))
}
