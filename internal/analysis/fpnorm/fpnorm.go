// Package fpnorm holds the floating-point helpers shared by the
// determinism analyzers: the solver-package set under the Seed+k
// contract (detflow, fparith) and the FMA-fusion site classifier
// (fparith).
package fpnorm

import (
	"go/types"
	"strings"
)

// SolverPkgs are the import-path segments of the packages under the
// Seed+k determinism contract. Shared by detflow (nondeterminism
// sources) and fparith (FMA-fusion hazards): both guard the same
// invariant — the trajectory is a pure function of Seed+attempt — from
// different directions.
var SolverPkgs = []string{
	"internal/circuit",
	"internal/la",
	"internal/ode",
	"internal/solc",
	"internal/memristor",
	"internal/device",
	"internal/solg",
}

// IsSolverPkg reports whether the import path belongs to a package under
// the determinism contract.
func IsSolverPkg(path string) bool {
	for _, seg := range SolverPkgs {
		if strings.HasSuffix(path, seg) || strings.Contains(path, seg+"/") {
			return true
		}
	}
	return false
}

// isFloat reports whether t is a floating-point basic type (or has one
// as its underlying type).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
