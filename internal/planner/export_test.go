package planner

// Test hooks for the external planner_test package, whose fold and
// lowering tests need the comparator-network engines of internal/cmpnet
// (which imports this package).

// Steps returns the builder's raw step stream and permutation table —
// the program as lowered, before Compile folds it.
func (b *Builder) Steps() ([]Step, []int32) { return b.steps, b.perms }

// Steps returns the compiled program's step stream.
func (p *Program) Steps() []Step { return p.steps }

// VectorPaths lists the packed kernel paths the CPU can run; SetVector
// forces one for the rest of a test.
var (
	VectorPaths = vectorPaths
	SetVector   = setVector
)
