package planner

// Test hooks for the external planner_test package, whose fold tests
// need the comparator-network engines of internal/cmpnet (which imports
// this package).

// Steps returns the builder's raw step stream and permutation table —
// the program as lowered, before Compile folds it.
func (b *Builder) Steps() ([]Step, []int32) { return b.steps, b.perms }

// Steps returns the compiled program's step stream.
func (p *Program) Steps() []Step { return p.steps }

// EndsRun is the fold's run detector: the length of the opposite-ends
// OpCmpPair run that opens steps, or 0.
var EndsRun = endsRun
