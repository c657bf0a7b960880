// Sharded programs: the system-level form of the paper's recursion. A
// flat fused program replays the whole n-input network sequentially, and
// BENCH_route.json shows where that stops scaling — planned ≈
// planned-parallel at n=4096, because one replay is one sequential pass.
// A ShardedProgram splits the replay the way the paper splits the
// network: a cross program routes every packet into its shard window
// (the top lg w distribution levels), and then w replays of ONE shared
// n/w sub-program finish the independent windows. The sub-replays share
// no state beyond the immutable program, so they run on the batch
// executor across workers — and, one layer up (internal/permnet), as 64
// SWAR lanes of a single packed replay, which is where the speedup on a
// small machine actually comes from.
package planner

import "fmt"

// ShardedProgram composes a cross-exchange program over the full n-word
// array with w window replays of one shared n/w sub-program. It is
// immutable and safe for concurrent use; both component programs draw
// scratch from their own pools.
type ShardedProgram struct {
	cross  *Program // n-input: routes packets into their shard windows
	sub    *Program // (n/w)-input: finishes one window, replayed per shard
	shards int
}

// NewShardedProgram validates the composition: cross spans exactly
// shards copies of sub's window.
func NewShardedProgram(cross, sub *Program, shards int) (*ShardedProgram, error) {
	if cross == nil || sub == nil {
		return nil, fmt.Errorf("planner: NewShardedProgram: nil program")
	}
	if shards < 1 {
		return nil, fmt.Errorf("planner: NewShardedProgram: %d shards", shards)
	}
	if cross.N() != sub.N()*shards {
		return nil, fmt.Errorf("planner: NewShardedProgram: cross width %d != %d shards × sub width %d",
			cross.N(), shards, sub.N())
	}
	return &ShardedProgram{cross: cross, sub: sub, shards: shards}, nil
}

// N returns the full network width (cross width).
func (sp *ShardedProgram) N() int { return sp.cross.N() }

// Shards returns the shard count w.
func (sp *ShardedProgram) Shards() int { return sp.shards }

// Cross returns the cross-exchange program (shared, immutable).
func (sp *ShardedProgram) Cross() *Program { return sp.cross }

// Sub returns the per-shard sub-program (shared, immutable).
func (sp *ShardedProgram) Sub() *Program { return sp.sub }

// Run executes the sharded program in place over vals: the cross
// exchange over the full array, then the sub-program over every shard
// window, distributed across workers goroutines (≤ 0 means GOMAXPROCS)
// by the batch executor. Each window replay draws its own pooled scratch
// from the shared sub-program, so shards never contend on working state.
// len(vals) must equal N; like Program.Run, a mismatch is a caller bug
// and panics.
func (sp *ShardedProgram) Run(vals []uint64, workers int) {
	if len(vals) != sp.cross.N() {
		panic(fmt.Sprintf("planner: ShardedProgram(%d).Run over %d values",
			sp.cross.N(), len(vals)))
	}
	sp.cross.Run(vals)
	m := sp.sub.N()
	runBatch(sp.shards, workers, 1, func(s int) bool {
		sp.sub.Run(vals[s*m : (s+1)*m])
		return true
	})
}
