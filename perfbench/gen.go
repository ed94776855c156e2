package main

import (
	"math"
	"sort"
)

// The benchmark owns its inputs and its reference answers: every key
// stream is generated here from the run's seed, and exact counts are
// computed from the generated stream, never by a program package.

// rng is splitmix64: tiny, fast, and identical on every platform and
// Go release, so a seed names the same inputs forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rankKey maps a rank (or a uniform draw) to a scattered 64-bit key,
// so that neighbouring ranks do not share hash structure. The mapping is
// fixed: the seed changes which ranks are drawn and in what order, not
// which key a rank is, so the hottest keys (and the shards that own
// them) are the same in every run of a workload.
func rankKey(rank uint64) uint64 { return mix64(rank ^ 0x5bd1e995) }

// zipfStream draws n keys from a Zipf(s) law over ranks 1..universe by
// inverting the cumulative weights; s = 1.0 is allowed.
func zipfStream(seed uint64, n, universe int, s float64) []uint64 {
	cdf := make([]float64, universe)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	r := rng{s: seed}
	out := make([]uint64, n)
	for i := range out {
		u := r.float() * total
		rank := sort.SearchFloat64s(cdf, u)
		if rank >= universe {
			rank = universe - 1
		}
		out[i] = rankKey(uint64(rank))
	}
	return out
}

// uniformStream draws n keys uniformly from a universe of the given size.
func uniformStream(seed uint64, n int, universe uint64) []uint64 {
	r := rng{s: seed}
	out := make([]uint64, n)
	for i := range out {
		out[i] = rankKey(r.next() % universe)
	}
	return out
}

// substream is one client's share of a generated stream, replayed
// cyclically for as long as the run lasts.
type substream struct {
	keys []uint64
}

// split deals a stream round-robin into k sub-streams.
func split(stream []uint64, k int) []substream {
	out := make([]substream, k)
	for i, key := range stream {
		out[i%k].keys = append(out[i%k].keys, key)
	}
	return out
}

// at returns the key issued at position pos (0-based) of the cyclic replay.
func (s substream) at(pos int64) uint64 { return s.keys[pos%int64(len(s.keys))] }

// counter answers exact "how many times was key issued in the first pos
// positions" questions over cyclic sub-streams, for a fixed key set.
type counter struct {
	subs []substream
	// pos[c][key] lists the offsets of key within sub-stream c.
	pos []map[uint64][]int32
}

func newCounter(subs []substream, keys []uint64) *counter {
	want := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	c := &counter{subs: subs, pos: make([]map[uint64][]int32, len(subs))}
	for i, s := range subs {
		m := make(map[uint64][]int32)
		for off, k := range s.keys {
			if want[k] {
				m[k] = append(m[k], int32(off))
			}
		}
		c.pos[i] = m
	}
	return c
}

// count returns key's occurrences in the first n positions of sub-stream sub.
func (c *counter) count(sub int, key uint64, n int64) uint64 {
	offs := c.pos[sub][key]
	l := int64(len(c.subs[sub].keys))
	full, rem := n/l, n%l
	partial := sort.Search(len(offs), func(i int) bool { return int64(offs[i]) >= rem })
	return uint64(full)*uint64(len(offs)) + uint64(partial)
}

// total sums key's occurrences over every sub-stream's first ns[i] positions.
func (c *counter) total(key uint64, ns []int64) uint64 {
	var t uint64
	for i, n := range ns {
		t += c.count(i, key, n)
	}
	return t
}

// probeSet picks the keys whose final estimates are checked: the hottest
// distinct keys of the stream plus keys sampled at random positions.
func probeSet(seed uint64, stream []uint64, hot, sampled int) []uint64 {
	freq := make(map[uint64]int)
	for _, k := range stream {
		freq[k]++
	}
	// Keep the hot keys by a bounded insertion sort: hot is small.
	type kf struct {
		key uint64
		n   int
	}
	better := func(a, b kf) bool { return a.n > b.n || (a.n == b.n && a.key < b.key) }
	top := make([]kf, 0, hot+1)
	for k, n := range freq {
		e := kf{k, n}
		if len(top) == hot && !better(e, top[hot-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return better(e, top[i]) })
		top = append(top, kf{})
		copy(top[i+1:], top[i:])
		top[i] = e
		if len(top) > hot {
			top = top[:hot]
		}
	}
	seen := make(map[uint64]bool)
	out := make([]uint64, 0, hot+sampled)
	for _, e := range top {
		seen[e.key] = true
		out = append(out, e.key)
	}
	r := rng{s: seed ^ 0xa5a5a5a5}
	for tries := 0; len(out) < hot+sampled && tries < 100*sampled; tries++ {
		k := stream[r.next()%uint64(len(stream))]
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// cmBound is ⌈e·N/w⌉, the Count-Min additive error bound for width w.
func cmBound(n uint64, width int) uint64 {
	return uint64(math.Ceil(math.E * float64(n) / float64(width)))
}
