// Package analysistest runs an analyzer over fixture packages and checks
// its findings against `// want "regexp"` comments, mirroring the upstream
// golang.org/x/tools analysistest contract on a small scale: every
// expectation must be matched by a finding on its line, and every finding
// must be claimed by an expectation.
package analysistest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quoteRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Pkg names one fixture package for RunPkgs: the directory holding its
// .go files and the import path it type-checks under.
type Pkg struct {
	Dir        string
	ImportPath string
}

// Run type-checks the fixture package rooted at dir under the given
// import path (which analyzers may inspect, e.g. nakedgoroutine's
// internal/par allowlist), applies the analyzer, and diffs findings
// against the fixture's `// want` comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	RunPkgs(t, a, []Pkg{{Dir: dir, ImportPath: importPath}})
}

// RunPkgs is the multi-package form of Run: every fixture package is
// type-checked through one Loader in slice order — list a dependency
// before its importer, so cross-fixture imports resolve through the
// Loader's registry — and the analyzer sees all of them at once. That
// is the shape interprocedural analyzers need in tests: a caller in
// package A, its callee in package B. `// want` comments
// are honored in every package.
func RunPkgs(t *testing.T, a *analysis.Analyzer, fixturePkgs []Pkg) {
	t.Helper()
	loader := analysis.NewLoader()
	var pkgs []*analysis.Package
	var files []string
	for _, fp := range fixturePkgs {
		ents, err := os.ReadDir(fp.Dir)
		if err != nil {
			t.Fatalf("reading fixture dir %s: %v", fp.Dir, err)
		}
		var pkgFiles []string
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".go") {
				pkgFiles = append(pkgFiles, filepath.Join(fp.Dir, e.Name()))
			}
		}
		if len(pkgFiles) == 0 {
			t.Fatalf("no fixture files in %s", fp.Dir)
		}
		pkg, err := loader.Check(fp.ImportPath, fp.Dir, pkgFiles)
		if err != nil {
			t.Fatalf("fixture %s failed to type-check: %v", fp.Dir, err)
		}
		pkgs = append(pkgs, pkg)
		files = append(files, pkgFiles...)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	got := make(map[key][]string)
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		got[k] = append(got[k], f.Message)
	}
	want := make(map[key][]*regexp.Regexp)
	for _, name := range files {
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, q := range quoteRe.FindAllStringSubmatch(m[1], -1) {
				pat := q[1]
				if pat == "" {
					pat = q[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, line, pat, err)
				}
				k := key{name, line}
				want[k] = append(want[k], re)
			}
		}
		fh.Close()
	}

	var keys []key
	seen := make(map[key]bool)
	for k := range got {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	for k := range want {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		msgs, exps := got[k], want[k]
		claimed := make([]bool, len(msgs))
		for _, re := range exps {
			ok := false
			for i, msg := range msgs {
				if !claimed[i] && re.MatchString(msg) {
					claimed[i] = true
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s:%d: expected finding matching %q, got %s",
					k.file, k.line, re, describe(msgs))
			}
		}
		for i, msg := range msgs {
			if !claimed[i] {
				t.Errorf("%s:%d: unexpected finding: %s", k.file, k.line, msg)
			}
		}
	}
}

func describe(msgs []string) string {
	if len(msgs) == 0 {
		return "no findings"
	}
	return fmt.Sprintf("%q", msgs)
}
