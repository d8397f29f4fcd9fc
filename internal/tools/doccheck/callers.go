package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// zeroCallerAllow lists the functions and test-support packages under
// internal/ that may stay without a production caller, each with the
// reason. Keys are "dir.Func", "dir.Type.Method" or a bare "dir" for a
// whole package. An entry that names nothing, or something that has
// gained a production caller, is itself reported, so the list cannot go
// stale.
var zeroCallerAllow = map[string]string{
	// Cross-package test references: oracles and enumerators that tests
	// of other packages compare the production paths against.
	"internal/snowcat.Evaluate":         "per-mapping reference evaluator for nest, mapping and trace tests",
	"internal/mapping.Space":            "whole-space enumerator behind the per-order reference tests",
	"internal/mapping.SpaceSize":        "mapspace size oracle for the perfect enumerator tests",
	"internal/mapping.SpaceImperfect":   "imperfect whole-space enumerator behind the reference tests",
	"internal/einsum.MustParse":         "panicking parse for test fixtures across packages",
	"internal/einsum.Einsum.RankShape":  "rank-extent view the shape and snowcat tests build from",
	"internal/einsum.Einsum.Inputs":     "input-tensor view the parse and models tests inspect",
	"internal/shape.ThreeSplits":        "the split order multilevel's keyed splits are pinned against",
	"internal/multilevel.Merge":         "combines per-range results in the range-cover parity tests",
	"internal/bound.GEMMPeakOI":         "closed-form GEMM peak OI the figure tests check curves against",
	"internal/mapping.Mapping.Validate": "mapping invariant the mapping and snowcat tests check enumerated mappings against",

	// Test fakes.
	"internal/fleet/chaos":         "fault-injecting transport for the fleet chaos suite",
	"internal/shard.FailN":         "faultfs fault constructor for the shard and store fault suites",
	"internal/shard.KillAtIndex":   "faultfs crash point for the kill-and-resume tests",
	"internal/shard.FaultFS.Log":   "faultfs operation log the ordering and seam-completeness tests read",
	"internal/shard.FaultFS.Count": "faultfs operation counts the shard fault suite reads",

	// Facade API reached through the orojenesis.Curve and
	// ThreeLevelResult aliases.
	"internal/pareto.Curve.BufferFor":           "orojenesis.Curve method: smallest buffer reaching an access target",
	"internal/multilevel.Result.CompositionGap": "orojenesis.ThreeLevelResult method: joint vs probed L2 gap",
}

// funcKey names one audited declaration: its module-relative directory,
// its receiver type ("" for a package-level function) and its name.
type funcKey struct {
	dir, recv, name string
}

func (k funcKey) String() string {
	if k.recv == "" {
		return k.dir + "." + k.name
	}
	return k.dir + "." + k.recv + "." + k.name
}

// checkCallers enforces the zero-caller rule: every func and method
// declared in a non-test file under internal/ (internal/tools excluded)
// must be used from a non-test file of the module (root package, cmd/,
// examples/, internal/) or of bench/, which is read as a caller only.
// Every package is type-checked from source (go/types), so a use
// resolves to the declaration itself, receiver and all: a method is
// used when something calls or references it directly, when it
// implements an interface method that something calls, or when it
// satisfies fmt.Stringer, error or a json (un)marshaler, whose callers
// live in the standard library. A function's uses inside its own body
// do not count. Entries of allow are exempt and checked for staleness.
func checkCallers(l *loader, allow map[string]string) []string {
	decls := map[*types.Func]funcKey{}
	uses := map[*types.Func]bool{}
	called := map[*types.Func]bool{} // interface methods somebody calls
	for _, p := range l.pkgs {
		audited := p.audited()
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self, _ = l.info.Defs[fd.Name].(*types.Func)
					if audited && self != nil && !(fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
						decls[self] = funcKey{p.dir, recvName(fd), fd.Name.Name}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := l.info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					if fn == self {
						return true
					}
					if recvInterface(fn) != nil {
						called[fn] = true
					} else {
						uses[fn] = true
					}
					return true
				})
			}
		}
	}

	var problems []string
	used := map[string]bool{}
	for fn, k := range decls {
		if uses[fn] || k.recv != "" && (stdInterfaceMethod(fn) || implementsCalled(fn, called)) {
			continue
		}
		if entry, ok := allowEntry(allow, k); ok {
			used[entry] = true
			continue
		}
		what := "function"
		if k.recv != "" {
			what = "method"
		}
		pos := l.fset.Position(fn.Pos())
		problems = append(problems, fmt.Sprintf("%s:%d: %s %s has no production caller",
			filepath.ToSlash(pos.Filename), pos.Line, what, k))
	}
	for entry := range allow {
		if !used[entry] {
			problems = append(problems, fmt.Sprintf("zero-caller allowlist: %s names no function without a production caller; drop the entry", entry))
		}
	}
	sort.Strings(problems)
	return problems
}

// recvInterface returns the interface fn is a method of, or nil for a
// function or a concrete method.
func recvInterface(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// stdMethods are the shapes (parameter types -> result types) of the
// methods the standard library calls through fmt.Stringer, error,
// json.Marshaler and json.Unmarshaler.
var stdMethods = map[string]string{
	"String":        "-> string",
	"Error":         "-> string",
	"MarshalJSON":   "-> []byte error",
	"UnmarshalJSON": "[]byte -> error",
}

// stdInterfaceMethod reports whether the method fn satisfies one of the
// standard interfaces in stdMethods.
func stdInterfaceMethod(fn *types.Func) bool {
	want, ok := stdMethods[fn.Name()]
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for i := 0; i < sig.Params().Len(); i++ {
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil) + " ")
	}
	b.WriteString("->")
	for i := 0; i < sig.Results().Len(); i++ {
		b.WriteString(" " + types.TypeString(sig.Results().At(i).Type(), nil))
	}
	return b.String() == want
}

// implementsCalled reports whether the method fn implements one of the
// called interface methods: same name, and fn's receiver type (or a
// pointer to it) implements that method's interface.
func implementsCalled(fn *types.Func, called map[*types.Func]bool) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for im := range called {
		if im.Name() != fn.Name() {
			continue
		}
		iface := recvInterface(im)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// allowEntry returns the allowlist entry covering k: its own key or a
// whole-package entry for its directory.
func allowEntry(allow map[string]string, k funcKey) (string, bool) {
	if _, ok := allow[k.String()]; ok {
		return k.String(), true
	}
	if _, ok := allow[k.dir]; ok {
		return k.dir, true
	}
	return "", false
}

// loader type-checks non-test packages from source, sharing one
// types.Info. Import paths under the module (or under bench/'s own
// module, when bench/go.mod exists) load from their directory; the
// standard library comes from the source importer.
type loader struct {
	root string
	fset *token.FileSet
	mods []modDir // longest module path first
	std  types.Importer
	info *types.Info
	pkgs map[string]*loaded
}

// modDir maps a module path to its module-relative directory.
type modDir struct{ path, dir string }

// loaded is one type-checked package.
type loaded struct {
	dir   string // module-relative
	pkg   *types.Package
	files []*ast.File
}

// loadModule type-checks every non-test package of the module at root
// (the root package, cmd/, examples/ and internal/) and of bench/.
func loadModule(root string) (*loader, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	for _, top := range []string{".", "cmd", "examples", "internal", "bench"} {
		dirs, err := goDirs(root, top)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			if _, err := l.load(l.importPath(dir)); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

func newLoader(root string) (*loader, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		root: root,
		fset: token.NewFileSet(),
		mods: []modDir{{module, "."}},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*loaded{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	// bench/ is read as a caller; it may be a module of its own.
	if bench, err := modulePath(filepath.Join(root, "bench", "go.mod")); err == nil {
		l.mods = append([]modDir{{bench, "bench"}}, l.mods...)
	}
	return l, nil
}

// importPath names the package in the module-relative directory dir.
func (l *loader) importPath(dir string) string {
	for _, m := range l.mods {
		switch {
		case dir == m.dir:
			return m.path
		case m.dir == ".":
			return m.path + "/" + dir
		case strings.HasPrefix(dir, m.dir+"/"):
			return m.path + "/" + dir[len(m.dir)+1:]
		}
	}
	return dir
}

// dirOf maps an import path under one of the modules to its
// module-relative directory.
func (l *loader) dirOf(path string) (string, bool) {
	for _, m := range l.mods {
		if path == m.path {
			return m.dir, true
		}
		if rel, ok := strings.CutPrefix(path, m.path+"/"); ok {
			return filepath.ToSlash(filepath.Join(m.dir, rel)), true
		}
	}
	return "", false
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirOf(path); !ok {
		return l.std.Import(path)
	}
	return l.load(path)
}

// load type-checks the module package path (once) and records it.
func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir, _ := l.dirOf(path)
	files, err := parseDir(l.fset, l.root, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	l.pkgs[path] = &loaded{dir: dir, pkg: pkg, files: files}
	return pkg, nil
}

// audited reports whether the package's declarations fall under the
// production-use rules: everything under internal/ but internal/tools.
func (p *loaded) audited() bool {
	return strings.HasPrefix(p.dir, "internal/") && p.dir != "internal/tools" &&
		!strings.HasPrefix(p.dir, "internal/tools/")
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// goDirs returns the module-relative directories holding Go files at or
// under top ("." is the root package alone), testdata and dot
// directories excluded; a missing top yields none.
func goDirs(root, top string) ([]string, error) {
	if top == "." {
		return []string{"."}, nil
	}
	if _, err := os.Stat(filepath.Join(root, top)); os.IsNotExist(err) {
		return nil, nil
	}
	var dirs []string
	err := filepath.WalkDir(filepath.Join(root, top), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

// parseDir parses every non-test Go file of dir that the host's build
// constraints select.
func parseDir(fset *token.FileSet, root, dir string) ([]*ast.File, error) {
	full := filepath.Join(root, dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(full, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// recvName returns the receiver's base type name, or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
