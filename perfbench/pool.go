package main

import (
	"context"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dsketch"
)

// Pool workloads drive an in-process dsketch.Pool configured like
// dsserve's defaults with two closed-loop client goroutines. Each client
// replays its sub-stream of one generated stream; every 100th operation
// is a read of the key it inserted last, the other 99 are Pool.Insert.

const (
	poolClients     = 2
	poolReadEvery   = 100 // one read per 100 operations
	poolInsertEvery = 64  // one timed insert call per 64
	exceedShareMax  = 0.01
)

// poolConfig mirrors dsserve's flag defaults on this host.
func poolConfig() dsketch.PoolConfig {
	return dsketch.PoolConfig{
		Config:        dsketch.Config{Threads: runtime.NumCPU(), Width: 4096, Depth: 8},
		BatchSize:     256,
		QueueCapacity: 4096,
		IdleHelp:      100 * time.Microsecond,
		ViewInterval:  100 * time.Millisecond,
	}
}

// poolRead is one in-run read, kept for checking after the run.
type poolRead struct {
	key       uint64
	est       uint64
	client    int
	own       int64 // the reading client's inserts, all issued before the read
	otherDone int64 // the other client's inserts once the read returned
}

type poolClient struct {
	inserts atomic.Int64
	_       [56]byte // keep the two progress counters on separate cache lines
}

func runPool(ctx context.Context, o options, stale bool) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, counters: map[string]float64{}}
	if o.trace {
		out.tracer = newTracer()
	}
	tr := out.tracer
	streamLen, setupReps := 1<<21, 101
	if o.tiny {
		streamLen, setupReps = 1<<14, 3
	}
	var stream []uint64
	if stale {
		stream = uniformStream(o.seed, streamLen, 1<<32)
	} else {
		stream = zipfStream(o.seed, streamLen, 1<<20, 1.5)
	}
	subs := split(stream, poolClients)
	probes := probeSet(o.seed, stream, 100, 900)
	cfg := poolConfig()

	// Set-up: build the pool several times and report the median.
	var setups []time.Duration
	var p *dsketch.Pool
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		q, err := dsketch.NewPoolChecked(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if i < setupReps-1 {
			q.Close()
		} else {
			p = q
		}
	}
	defer p.Close()
	out.e2e["setup_s"] = medianSeconds(setups)

	warm := warmup
	if o.tiny {
		warm = 100 * time.Millisecond
	}
	var ph phases
	clients := make([]poolClient, poolClients)
	reads := make([][]poolRead, poolClients)
	readLat := make([][]time.Duration, poolClients)
	insertLat := make([][]time.Duration, poolClients)
	total := func() int64 { return clients[0].inserts.Load() + clients[1].inserts.Load() }
	var wg sync.WaitGroup
	for c := 0; c < poolClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, me, other := subs[c], &clients[c], &clients[1-c]
			var pos int64
			for op := 1; ; op++ {
				if op&255 == 0 && ph.stop.Load() {
					break
				}
				if op%poolReadEvery != 0 {
					key := sub.at(pos)
					if op%poolInsertEvery == 1 && ph.measuring.Load() {
						t0 := time.Now()
						p.Insert(key)
						insertLat[c] = append(insertLat[c], time.Since(t0))
						tr.since("pool.insert", t0, 1)
					} else {
						p.Insert(key)
					}
					pos++
					me.inserts.Store(pos)
					continue
				}
				key := sub.at(pos - 1)
				t0 := time.Now()
				var est uint64
				if stale {
					est, _ = p.QueryStale(key)
				} else {
					est = p.Query(key)
				}
				if ph.measuring.Load() {
					readLat[c] = append(readLat[c], time.Since(t0))
					if stale {
						tr.since("pool.query_stale", t0, 1)
					} else {
						tr.since("pool.query", t0, 1)
					}
				}
				reads[c] = append(reads[c], poolRead{key: key, est: est, client: c, own: pos, otherDone: other.inserts.Load()})
			}
		}()
	}
	// Warm up, then measure for the run's length.
	sleep(ctx, warm)
	base, start := total(), time.Now()
	ph.measuring.Store(true)
	sleep(ctx, time.Duration(o.seconds*float64(time.Second)))
	ph.stop.Store(true)
	wg.Wait()
	if ctx.Err() != nil {
		return out, nil
	}
	// Barrier: after Quiesce every accepted insertion is visible.
	t0 := time.Now()
	p.Quiesce(func(*dsketch.Sketch) {})
	end := time.Now()
	tr.since("pool.barrier", t0, 0)

	final := []int64{clients[0].inserts.Load(), clients[1].inserts.Load()}
	n := final[0] + final[1]
	var nReads int64
	for c := range reads {
		nReads += int64(len(reads[c]))
	}
	out.attempted = n + nReads
	out.e2e["ingest_rate"] = float64(n-base) / end.Sub(start).Seconds() / 1e6

	var rl, il []time.Duration
	for c := 0; c < poolClients; c++ {
		rl = append(rl, readLat[c]...)
		il = append(il, insertLat[c]...)
	}
	out.e2e["query_p50_us"] = quantile(durations(rl, time.Microsecond), 0.5)
	out.e2e["query_p99_us"] = quantile(durations(rl, time.Microsecond), 0.99)
	out.e2e["insert_p50_us"] = quantile(durations(il, time.Microsecond), 0.5)
	out.e2e["insert_p99_us"] = quantile(durations(il, time.Microsecond), 0.99)
	warnSamples("read", len(rl))

	m := p.Metrics()
	if m.Inserts != uint64(n) || m.Dropped != 0 || m.Rejected != 0 {
		out.violate("pool metrics: inserts=%d (issued %d) dropped=%d rejected=%d", m.Inserts, n, m.Dropped, m.Rejected)
	}

	// Reference answers for the probe set and every key read in the run.
	keys := append([]uint64{}, probes...)
	for c := range reads {
		for _, r := range reads[c] {
			keys = append(keys, r.key)
		}
	}
	ref := newCounter(subs, keys)
	width := cfg.Width
	bound := cmBound(uint64(n), width)
	var over float64
	exceed := 0
	for _, k := range probes {
		est, exact := p.Query(k), ref.total(k, final)
		if est < exact {
			out.violate("probe key %d estimated %d below its exact count %d", k, est, exact)
			continue
		}
		over += float64(est - exact)
		if est-exact > bound {
			exceed++
		}
	}
	out.attempted += int64(len(probes))
	if share := float64(exceed) / float64(len(probes)); share > exceedShareMax {
		out.violate("%.2f%% of probe keys exceed the Count-Min bound %d", 100*share, bound)
	}
	out.e2e["overcount_mean"] = over / float64(len(probes)) / float64(n) * 1e6

	exceed = 0
	for c := range reads {
		for _, r := range reads[c] {
			done := []int64{0, 0}
			done[r.client], done[1-r.client] = r.own, r.otherDone
			exact := ref.total(r.key, done)
			if r.est > exact+cmBound(uint64(done[0]+done[1]), width) {
				exceed++
			}
		}
	}
	if nReads > 0 {
		if share := float64(exceed) / float64(nReads); share > exceedShareMax {
			out.violate("%.2f%% of in-run reads exceed their Count-Min bound", 100*share)
		}
	}

	// Resident memory of the process hosting the pool, once the
	// benchmark's own inputs and samples are dropped and the garbage is
	// returned to the OS.
	stream, subs, keys, reads, readLat, insertLat, rl, il, ref = nil, nil, nil, nil, nil, nil, nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	rss, err := procStatusMB(os.Getpid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	out.e2e["server_rss_mb"] = rss

	st := p.Stats()
	queries := float64(st.DirectQueries + st.DelegatedPosts)
	out.counters = map[string]float64{
		"pool.batch_mean":               m.BatchMean,
		"pool.depth_mean":               m.DepthMean,
		"pool.backpressure":             float64(m.Backpressure),
		"pool.views_published":          float64(m.ViewsPublished),
		"pool.stale_fallback_share":     ratio(float64(m.StaleFallbacks), float64(m.StaleQueries+m.StaleFallbacks)),
		"delegation.inserts_per_drain":  ratio(float64(n), float64(st.Drains)),
		"delegation.delegated_share":    ratio(float64(st.DelegatedPosts), queries),
		"delegation.searches_per_query": ratio(float64(st.Searches), queries),
		"delegation.squash_share":       ratio(float64(st.Squashed), float64(st.ServedQueries)),
		"sketch.memory_bytes":           float64(p.MemoryBytes()),
	}
	if o.trace {
		log.Printf("pool: %d inserts, %d reads, backpressure=%d batches=%d", n, nReads, m.Backpressure, m.Batches)
	}
	return out, nil
}
