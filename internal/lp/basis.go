package lp

// VarStatus is the simplex status of one variable. The sparse revised
// simplex works on the standard form  A x + s = b  with one logical
// (slack) variable s_i per row, so a basis assigns a status to every
// structural variable and every logical.
type VarStatus int8

const (
	// AtLower marks a nonbasic variable sitting at its lower bound.
	AtLower VarStatus = iota
	// AtUpper marks a nonbasic variable sitting at its upper bound.
	AtUpper
	// NonbasicFree marks a nonbasic free variable, held at value 0.
	NonbasicFree
	// Basic marks a basic variable; its value is determined by the solve.
	Basic
)

// Basis is a simplex basis in variable-status form: one status per
// structural variable followed by one per row logical, in problem order.
// The status form survives problem edits better than an explicit basis
// heading — a warm start maps statuses for the variables that still exist
// and the solver repairs the basic count and any singularity — which is
// what lets branch-and-bound children start from their parent's basis.
//
// A Basis returned by a solve is immutable by convention: a
// branch-and-bound node hands the same parent basis to both children by
// pointer, so nothing may mutate it.
type Basis struct {
	// Status has length NumVars()+NumConstraints() of the problem the
	// basis was derived from: structural variables first, then one
	// logical per constraint row.
	Status []VarStatus
}
