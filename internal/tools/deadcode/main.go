// Command deadcode reports every function and method of the module that no
// program of the module can reach, using only the standard library.
//
// Every non-test file of every package under the module root is parsed and
// type-checked (the standard library through go/importer). A directory with
// its own go.mod, such as the repository benchmark in benchmark/, is parsed
// as a caller only. The roots are main, every init function and every
// package-level variable initializer of the packages the programs link. A
// function is reachable when a reachable body names it, called or taken as a
// value. A method is also reachable when a type that reachable code uses
// implements an interface that reachable code mentions (anonymous ones
// included, as in x.(interface{ Sick() error })) or that an imported standard
// library package exports, since the method can then be called dynamically.
//
// The allow-list (lines "symbol  # reason"; a trailing * matches a prefix)
// names symbols kept on purpose; they count as roots. Every other
// unreachable symbol, and every allow-list entry that names nothing
// unreachable, is printed and the exit status is 1.
//
// Run it from the module root:
//
//	go run ./internal/tools/deadcode
package main

import (
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

func main() {
	report, err := run(".", "internal/tools/deadcode/allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	if len(report) > 0 {
		os.Exit(1)
	}
}

// run returns, sorted, one line per unreachable symbol the allow-list does not
// name and one per allow-list entry that names no unreachable symbol.
func run(root, allowFile string) ([]string, error) {
	prog, err := load(root)
	if err != nil {
		return nil, err
	}
	pats, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	var report []string
	dead := prog.dead(nil)
	for _, pat := range pats {
		used := false
		for _, fn := range dead {
			used = used || match(pat, prog.symbol(fn))
		}
		if !used {
			report = append(report, fmt.Sprintf("%s: entry %q names no unreachable symbol", allowFile, pat))
		}
	}
	for _, fn := range prog.dead(pats) {
		pos := prog.fset.Position(prog.bodies[fn].Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		report = append(report, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(file), pos.Line, prog.symbol(fn)))
	}
	sort.Strings(report)
	return report, nil
}

func readAllow(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	var pats []string
	for _, line := range strings.Split(string(data), "\n") {
		if pat, _, _ := strings.Cut(line, "#"); strings.TrimSpace(pat) != "" {
			pats = append(pats, strings.TrimSpace(pat))
		}
	}
	return pats, err
}

func match(pat, sym string) bool {
	return sym == pat || (strings.HasSuffix(pat, "*") && strings.HasPrefix(sym, strings.TrimSuffix(pat, "*")))
}

type pkg struct {
	files  []*ast.File
	types  *types.Package
	info   *types.Info
	caller bool // in a nested module: its symbols are never reported
}

type program struct {
	fset   *token.FileSet
	mod    string
	std    types.Importer
	root   string
	pkgs   map[string]*pkg
	bodies map[*types.Func]*ast.FuncDecl
}

func load(root string) (*program, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	p := &program{fset: token.NewFileSet(), root: root, pkgs: map[string]*pkg{}, bodies: map[*types.Func]*ast.FuncDecl{}}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			p.mod = f[1]
		}
	}
	p.std = importer.ForCompiler(p.fset, "gc", nil)
	var nested []string // directories below root holding their own go.mod
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path := p.mod
		if rel != "." {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				nested = append(nested, dir+string(filepath.Separator))
			}
			path += "/" + filepath.ToSlash(rel)
		}
		pk, err := p.load(path, dir)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		for _, n := range nested {
			pk.caller = pk.caller || strings.HasPrefix(dir+string(filepath.Separator), n)
		}
		return nil
	})
	return p, err
}

// Import makes the program a types.Importer: module paths load from source.
func (p *program) Import(path string) (*types.Package, error) {
	if path != p.mod && !strings.HasPrefix(path, p.mod+"/") {
		return p.std.Import(path)
	}
	pk, err := p.load(path, filepath.Join(p.root, strings.TrimPrefix(path, p.mod)))
	if err != nil {
		return nil, err
	}
	return pk.types, nil
}

// load parses and type-checks the non-test files of dir as import path path.
func (p *program) load(path, dir string) (*pkg, error) {
	if pk, ok := p.pkgs[path]; ok {
		return pk, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pk := &pkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		pk.files = append(pk.files, f)
	}
	if pk.types, err = (&types.Config{Importer: p}).Check(path, p.fset, pk.files, pk.info); err != nil {
		return nil, err
	}
	for _, f := range pk.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "_" {
				p.bodies[pk.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	p.pkgs[path] = pk
	return pk, nil
}

func (p *program) symbol(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), p.mod), "/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// dead returns the reportable functions no root reaches, where the roots are
// the programs' entry points plus every symbol matching one of pats.
func (p *program) dead(pats []string) []*types.Func {
	r := &reach{seen: map[*types.Func]bool{}, ifaces: map[*types.Interface]bool{}, named: map[*types.Named]bool{}, walked: map[types.Type]bool{}}
	linked := map[*types.Package]bool{}
	var link func(*types.Package)
	link = func(tp *types.Package) {
		if !linked[tp] {
			linked[tp] = true
			for _, imp := range tp.Imports() {
				link(imp)
			}
		}
	}
	for _, pk := range p.pkgs {
		if pk.types.Name() == "main" {
			link(pk.types)
		}
	}
	for tp := range linked {
		if pk, ok := p.pkgs[tp.Path()]; ok {
			for _, f := range pk.files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && tp.Name() == "main") {
						r.mark(pk.info.Defs[fd.Name].(*types.Func))
					} else if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
						r.walk(pk.info, gd)
					}
				}
			}
		} else {
			for _, name := range tp.Scope().Names() {
				if obj := tp.Scope().Lookup(name); obj.Exported() {
					r.iface(obj.Type())
				}
			}
		}
	}
	for fn := range p.bodies {
		for _, pat := range pats {
			if match(pat, p.symbol(fn)) {
				r.mark(fn)
			}
		}
	}
	for len(r.queue) > 0 {
		for len(r.queue) > 0 {
			fn := r.queue[0]
			r.queue = r.queue[1:]
			if fd, ok := p.bodies[fn]; ok {
				r.walk(p.pkgs[fn.Pkg().Path()].info, fd)
			}
		}
		for n := range r.named {
			if _, own := p.pkgs[n.Obj().Pkg().Path()]; !own {
				continue
			}
			for it := range r.ifaces {
				if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if m, ok := types.NewMethodSet(types.NewPointer(n)).Lookup(it.Method(i).Pkg(), it.Method(i).Name()).Obj().(*types.Func); ok {
						r.mark(m)
					}
				}
			}
		}
	}
	var out []*types.Func
	for fn := range p.bodies {
		if !r.seen[fn] && !p.pkgs[fn.Pkg().Path()].caller {
			out = append(out, fn)
		}
	}
	return out
}

type reach struct {
	seen   map[*types.Func]bool
	queue  []*types.Func
	ifaces map[*types.Interface]bool
	named  map[*types.Named]bool // non-interface named types reachable code uses
	walked map[types.Type]bool
}

func (r *reach) mark(fn *types.Func) {
	if fn = fn.Origin(); !r.seen[fn] {
		r.seen[fn] = true
		r.queue = append(r.queue, fn)
	}
}

// walk marks every function n names and records the types of its
// expressions and of the objects it uses.
func (r *reach) walk(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			r.iface(info.TypeOf(e))
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				r.iface(obj.Type())
				if fn, ok := obj.(*types.Func); ok {
					r.mark(fn)
				}
			}
		}
		return true
	})
}

// iface records the interface and named types reachable from t through
// pointers, containers and signatures, but not through a named type's fields.
func (r *reach) iface(t types.Type) {
	if t == nil || r.walked[t] {
		return
	}
	r.walked[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			r.ifaces[it] = true
		} else {
			r.named[t] = true
		}
	case *types.Interface:
		r.ifaces[t] = true
	case *types.Map:
		r.iface(t.Key())
		r.iface(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		r.iface(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.iface(t.Field(i).Type())
		}
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.iface(t.At(i).Type())
		}
	case *types.Signature:
		if t.Recv() != nil {
			r.iface(t.Recv().Type())
		}
		r.iface(t.Params())
		r.iface(t.Results())
	}
}
