// Command doccheck enforces the godoc contract on the packages whose
// API the architecture guide documents: every exported identifier —
// package, type, function, method, and exported struct field or
// interface method of an exported type — must carry a doc comment.
//
// Usage:
//
//	go run ./scripts/doccheck [pkgdir ...]
//
// With no arguments it checks the repo's documented core: the root
// ipim package, internal/sim, internal/cube, internal/vault,
// internal/engine, internal/noc, internal/dram and internal/compiler.
// An allowlist (allow below) exempts identifiers whose meaning is fully
// carried by a group comment or by the field name itself; keep it
// small and justified.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs are the packages the godoc pass covers (relative to the
// repo root; see docs/ARCHITECTURE.md).
var defaultDirs = []string{".", "internal/sim", "internal/cube", "internal/vault", "internal/engine", "internal/noc", "internal/dram", "internal/compiler"}

// allow exempts "pkgdir:Identifier" pairs. Each entry needs a reason.
var allow = map[string]string{
	// Re-export blocks in the root package carry one doc comment per
	// name already; the aliased definitions hold the full contracts.
	// (None currently exempted — the list exists so future exemptions
	// are explicit and reviewed.)
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var missing []string
	for _, dir := range dirs {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	sort.Strings(missing)
	for _, m := range missing {
		fmt.Println(m)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers lack doc comments\n", len(missing))
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and returns a
// line per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		if _, ok := allow[dir+":"+name]; ok {
			return
		}
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			report(token.NoPos, "package", pkg.Name)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
						report(d.Pos(), "func", funcName(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return missing, nil
}

// exportedRecv reports whether a method's receiver type is exported
// (methods on unexported types are internal detail).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// checkGenDecl walks a const/var/type declaration. A doc comment on the
// grouped declaration covers its specs (the standard godoc idiom for
// const blocks); an individual spec may instead carry its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			checkTypeBody(s, report)
		case *ast.ValueSpec:
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					report(n.Pos(), kind, n.Name)
				}
			}
		}
	}
}

// checkTypeBody requires docs on exported fields of exported structs
// and exported methods of exported interfaces. A same-line comment
// counts (the common idiom for short unit notes).
func checkTypeBody(s *ast.TypeSpec, report func(token.Pos, string, string)) {
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					report(n.Pos(), "field", s.Name.Name+"."+n.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, f := range t.Methods.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					report(n.Pos(), "interface method", s.Name.Name+"."+n.Name)
				}
			}
		}
	}
}
