package main

// check.go — correctness oracles, run outside every timed region. The
// direct simulator sim.Run is the reference for every engine path.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sim"
)

var errWrongBody = errors.New("response differs from the reference")

// checkGridResult compares one sweep result with a direct run.
func checkGridResult(k *loops.Kernel, n int, cfg sim.Config, got *sim.Result) error {
	want, err := sim.Run(k, n, cfg)
	if err != nil {
		return fmt.Errorf("sim.Run %s: %w", k.Key, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("grid point %s n=%d %+v: sweep result differs from sim.Run", k.Key, n, cfg)
	}
	return nil
}

// checkPointBody decodes a /v1/classify body (or one /v1/sweep point)
// and compares every field with a direct run of the point it echoes.
// resolve maps the echoed kernel key back to its kernel.
func checkPointBody(body []byte, resolve func(string) (*loops.Kernel, error)) error {
	var got serve.PointResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding point body: %w", err)
	}
	k, err := resolve(got.Kernel)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		NPE:        got.Config.NPE,
		PageSize:   got.Config.PageSize,
		CacheElems: got.Config.CacheElems,
		LayoutRun:  got.Config.LayoutRun,
	}
	var ok1, ok2 bool
	if cfg.Policy, ok1 = policyByName[got.Config.Policy]; !ok1 {
		return fmt.Errorf("unexpected policy %q", got.Config.Policy)
	}
	if cfg.Layout, ok2 = layoutByName[got.Config.Layout]; !ok2 {
		return fmt.Errorf("unexpected layout %q", got.Config.Layout)
	}
	res, err := sim.Run(k, got.N, cfg)
	if err != nil {
		return fmt.Errorf("sim.Run %s: %w", k.Key, err)
	}
	want := serve.PointResult{
		Kernel:        got.Kernel,
		N:             got.N,
		Config:        got.Config,
		Engine:        got.Engine,
		Totals:        counters(res.Totals.Writes, res.Totals.LocalReads, res.Totals.CachedReads, res.Totals.RemoteReads),
		RemotePercent: res.Totals.RemotePercent(),
		CachedPercent: res.Totals.CachedPercent(),
		ReduceSends:   res.ReduceSends,
		ReduceBcasts:  res.ReduceBcasts,
		Checksums:     []serve.ChecksumOut{},
	}
	if len(res.Cache) > 0 {
		agg := &serve.CacheOut{}
		for _, cs := range res.Cache {
			agg.Hits += cs.Hits
			agg.Misses += cs.Misses
			agg.PartialMisses += cs.PartialMisses
			agg.Inserts += cs.Inserts
			agg.Refreshes += cs.Refreshes
			agg.Evictions += cs.Evictions
		}
		want.Cache = agg
	}
	for _, cs := range res.Checksums {
		want.Checksums = append(want.Checksums, serve.ChecksumOut{Name: cs.Name, Elems: cs.Elems, Defined: cs.Defined, Sum: cs.Sum})
	}
	if got.Checksums == nil {
		got.Checksums = []serve.ChecksumOut{}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("point %s n=%d %+v: %w", got.Kernel, got.N, got.Config, errWrongBody)
	}
	return nil
}

func counters(w, l, c, r int64) serve.CountersOut {
	return serve.CountersOut{Writes: w, LocalReads: l, CachedReads: c, RemoteReads: r}
}

var (
	policyByName = map[string]cache.Policy{}
	layoutByName = map[string]partition.Kind{}
)

func init() {
	for _, p := range policies {
		policyByName[p.String()] = p
	}
	for _, l := range layouts {
		layoutByName[l.String()] = l
	}
}
