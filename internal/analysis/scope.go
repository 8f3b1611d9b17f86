package analysis

// The contract-bearing package sets. Analyzers consult these by
// pass.Pkg.Path(), so analyzer testdata opts in by living under a
// testdata/src directory that mirrors the real import path.

// deterministicPkgs are the solver kernels whose results must be
// bit-identical for a given (instance, Params) at any worker count:
// no map-iteration order, no wall clock, no global RNG may reach them.
var deterministicPkgs = map[string]bool{
	"eblow/internal/oned":      true,
	"eblow/internal/twod":      true,
	"eblow/internal/ilp":       true,
	"eblow/internal/exact":     true,
	"eblow/internal/lp":        true,
	"eblow/internal/pack2d":    true,
	"eblow/internal/floorsa":   true,
	"eblow/internal/batch":     true,
	"eblow/internal/seqpair":   true,
	"eblow/internal/anneal":    true,
	"eblow/internal/portfolio": true,
	"eblow/internal/learn":     true,
}

// solverExtraPkgs extend the deterministic set for the RNG and
// cancellation contracts: baselines and the instance generator also must
// draw randomness only from injected, seeded sources and honor ctx.
var solverExtraPkgs = map[string]bool{
	"eblow/internal/baseline": true,
	"eblow/internal/gen":      true,
}

// FacadePath is the public API package whose error strings carry the
// "eblow: " prefix contract.
const FacadePath = "eblow"

// IsDeterministicPkg reports whether path is a deterministic solver kernel.
func IsDeterministicPkg(path string) bool { return deterministicPkgs[path] }

// IsSolverPkg reports whether path is a solver package for the RNG and
// cancellation contracts (the deterministic kernels plus baselines and the
// generator).
func IsSolverPkg(path string) bool {
	return deterministicPkgs[path] || solverExtraPkgs[path]
}
