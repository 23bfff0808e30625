// Package load turns `go list` package patterns into parsed, type-checked
// packages using only the standard library. It is the hermetic stand-in for
// golang.org/x/tools/go/packages: package metadata comes from
// `go list -json`, and imports are resolved from the compiler export data
// that `go list -export` materialises in the build cache, so no network or
// module download is ever needed. Packages loads a whole module at once,
// tests included: the one load the lint gate (lint.Audit) makes.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// ImportPath is the package's import path. External test packages get
	// the conventional "path_test" suffix.
	ImportPath string
	// Dir is the directory holding the source files.
	Dir string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's resolution results for Files.
	Info *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath   string
	Dir          string
	ForTest      string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	DepOnly      bool
}

// goList runs `go list` with the given arguments in dir and decodes the
// JSON stream it prints.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Packages loads every package under dir (the pattern ./..., so dir is
// normally the module root), type-checked against gc export data.
// In-package _test.go files are merged into their package and external
// foo_test packages are loaded as separate packages. Packages come back
// sorted by import path.
func Packages(dir string) ([]*Package, error) {
	deps, err := goList(dir, "-deps", "-export", "-json", "-test", "./...")
	if err != nil {
		return nil, err
	}
	// exports maps import path → export data file. testExports maps a base
	// import path → the export data of its in-package test variant
	// ("p [p.test]"), which is what an external p_test package compiles
	// against.
	exports := map[string]string{}
	testExports := map[string]string{}
	for _, e := range deps {
		if e.ForTest != "" {
			// "p [p.test]" is the in-package test variant of p; the external
			// "p_test [p.test]" entry also carries ForTest=p but exports
			// package p_test, which must not shadow p.
			if base, _, _ := strings.Cut(e.ImportPath, " ["); base == e.ForTest && e.Export != "" && testExports[e.ForTest] == "" {
				testExports[e.ForTest] = e.Export
			}
			continue
		}
		if e.Export != "" && exports[e.ImportPath] == "" {
			exports[e.ImportPath] = e.Export
		}
	}

	targets, err := goList(dir, "-json", "./...")
	if err != nil {
		return nil, err
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var pkgs []*Package
	for _, t := range targets {
		if t.Standard || t.DepOnly {
			continue
		}
		files := append(absFiles(t.Dir, t.GoFiles), absFiles(t.Dir, t.TestGoFiles)...)
		if len(files) > 0 {
			pkg, err := check(t.ImportPath, t.Dir, files, exports)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if len(t.XTestGoFiles) > 0 {
			// An external test package imports the *test variant* of its
			// package under test: remap that one path to the variant's
			// export data.
			exp := exports
			if v := testExports[t.ImportPath]; v != "" {
				exp = maps.Clone(exports)
				exp[t.ImportPath] = v
			}
			pkg, err := check(t.ImportPath+"_test", t.Dir, absFiles(t.Dir, t.XTestGoFiles), exp)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// absFiles joins names onto dir unless already absolute.
func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

// check parses files (named relative to pkgDir) and type-checks them as one
// package, resolving imports through the export map.
func check(importPath, pkgDir string, files []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, name := range files {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(pkgDir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		parsed = append(parsed, f)
	}
	pkg, info, err := Check(importPath, fset, parsed, exports)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: importPath,
		Dir:        pkgDir,
		Fset:       fset,
		Files:      parsed,
		Types:      pkg,
		Info:       info,
	}, nil
}

// Check type-checks already-parsed files as the package importPath,
// resolving imports from gc export data files. It is exported for the
// analysistest harness, which parses fixture sources itself.
func Check(importPath string, fset *token.FileSet, files []*ast.File, exports map[string]string) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return pkg, info, nil
}

// StdExports resolves export data for the given standard-library (or any
// buildable) import paths plus all their dependencies. Used by the
// analysistest harness, whose fixture packages import only the standard
// library.
func StdExports(dir string, paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	entries, err := goList(dir, append([]string{"-deps", "-export", "-json"}, paths...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}
