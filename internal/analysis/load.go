package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string

	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages. All packages loaded through one
// Loader share a FileSet and a source importer, so every dependency —
// including the standard library, which this offline build type-checks
// from GOROOT source — is checked at most once.
//
// Packages checked explicitly through Check additionally register in an
// import-path registry that the type-checker consults before the source
// importer. That lets fixture packages — which live under testdata and
// are invisible to the source importer — import each other, so
// interprocedural analyzers are testable with a caller in package A and
// its callee in package B. Packages resolved through Load do
// NOT register: the repository's own packages must keep resolving
// through the shared source-importer cache, or two universes of the same
// import path would meet in one type-check.
type Loader struct {
	Fset *token.FileSet
	imp  types.ImporterFrom

	// checked maps import path -> type-checked fixture package,
	// populated by Check and consulted by ImportFrom.
	checked map[string]*types.Package
}

// NewLoader returns a Loader backed by the stdlib source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		checked: make(map[string]*types.Package),
	}
	l.imp = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: explicitly-checked packages
// resolve from the registry first, everything else through the shared
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := l.checked[path]; pkg != nil {
		return pkg, nil
	}
	return l.imp.ImportFrom(path, dir, mode)
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

// Load resolves go-list patterns (e.g. "./...") relative to dir and
// type-checks every matched package. Only non-test files under the
// current build configuration are analyzed, matching what ships.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(&out)
	for dec.More() {
		var lp listPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, files, false)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Check parses and type-checks one package from an explicit file list
// under the given import path (used directly by analysistest fixtures)
// and registers it for import by later Check calls — check dependency
// fixtures before their importers.
func (l *Loader) Check(importPath, dir string, files []string) (*Package, error) {
	return l.check(importPath, dir, files, true)
}

func (l *Loader) check(importPath, dir string, files []string, register bool) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	if register {
		l.checked[importPath] = tpkg
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		GoFiles:    files,
		Fset:       l.Fset,
		Syntax:     syntax,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
