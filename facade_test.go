package reorder_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"reorder"
)

// The facade must support the README's workflows end to end without
// touching internal packages.

func TestFacadeQuickstart(t *testing.T) {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed:    1,
		Server:  reorder.FreeBSD4(),
		Forward: reorder.PathSpec{SwapProb: 0.05},
		Reverse: reorder.PathSpec{SwapProb: 0.02},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 2)
	res, err := p.SingleConnectionTest(reorder.SCTOptions{Samples: 50, Reversed: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forward().Valid() != 50 {
		t.Fatalf("forward: %+v", res.Forward())
	}
	if res.MeanRTT() <= 0 {
		t.Fatal("no RTT measured")
	}
}

func TestFacadeAllTechniques(t *testing.T) {
	net := reorder.NewSimNet(reorder.SimConfig{Seed: 3, Server: reorder.FreeBSD4()})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 4)
	if _, err := p.DualConnectionTest(reorder.DCTOptions{Samples: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SYNTest(reorder.SYNOptions{Samples: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DataTransferTest(reorder.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BurstTest(reorder.BurstOptions{BurstSize: 4, Bursts: 2}); err != nil {
		t.Fatal(err)
	}
	if rep, err := p.ValidateIPID(reorder.IPIDCheckOptions{}); err != nil || !rep.Usable() {
		t.Fatalf("IPID validation: %v %+v", err, rep)
	}
}

func TestFacadeErrorsAndProfiles(t *testing.T) {
	net := reorder.NewSimNet(reorder.SimConfig{Seed: 5, Server: reorder.Linux24()})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 6)
	if _, err := p.DualConnectionTest(reorder.DCTOptions{Samples: 2}); !errors.Is(err, reorder.ErrIPIDUnusable) {
		t.Fatalf("err = %v, want ErrIPIDUnusable", err)
	}
	if len(reorder.HostCatalog()) < 8 {
		t.Fatal("catalog too small")
	}
}

func TestFacadeGapSweep(t *testing.T) {
	net := reorder.NewSimNet(reorder.SimConfig{
		Seed:   7,
		Server: reorder.FreeBSD4(),
		Forward: reorder.PathSpec{
			LinkRate: 1_000_000_000,
			Trunk:    &reorder.TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.2, MeanBurstBytes: 2500},
		},
	})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 8)
	dist, err := p.GapSweep(reorder.GapSweepOptions{
		Gaps:          []time.Duration{0, 300 * time.Microsecond},
		SamplesPerGap: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dist.ForwardAt(0) <= dist.ForwardAt(300*time.Microsecond) {
		t.Fatal("no gap decay through the facade")
	}
}

// TestFacadeSurface keeps the facade at what its examples and tests run:
// every name reorder.go exports must be referenced from example_test.go or
// facade_test.go, unless it appears in the signature of another exported
// function (as SimNet does in NewSimNet's).
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	used := map[string]bool{}
	for _, name := range []string{"example_test.go", "facade_test.go"} {
		ast.Inspect(parse(name), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "reorder" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var exported []string
	for _, d := range parse("reorder.go").Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						used[id.Name] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						exported = append(exported, id.Name)
					}
				}
			}
		}
	}
	for _, name := range exported {
		if ast.IsExported(name) && !used[name] {
			t.Errorf("reorder.%s is exported but no example or facade test uses it", name)
		}
	}
}

// TestEveryKnobIsSet keeps every exported field of an exported *Options,
// *Config or *Spec struct in use: something in the module — a command, an
// experiment, a benchmark or a test — must set it. A field only its own
// defaults method fills is a constant. It reads the module with go/parser
// alone, so it cannot see types: a key in a typed composite literal sets
// that type's field, while an untyped key, a selector assignment and &x.F
// set every knob of that name.
func TestEveryKnobIsSet(t *testing.T) {
	type typeName struct{ pkg, name string } // pkg: module-relative directory
	type knob struct {
		typeName
		field string
	}
	fset := token.NewFileSet()
	type file struct {
		pkg string // directory, relative to the module root
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	isKnobType := func(name string) bool {
		return ast.IsExported(name) && (strings.HasSuffix(name, "Options") ||
			strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec"))
	}
	knobs := map[knob]bool{}         // declared field → set somewhere
	alias := map[typeName]typeName{} // facade alias → the type it names
	for _, fl := range files {
		if strings.HasSuffix(fset.File(fl.f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, d := range fl.f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range g.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !isKnobType(ts.Name.Name) {
					continue
				}
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
					if x, ok := sel.X.(*ast.Ident); ok {
						alias[typeName{fl.pkg, ts.Name.Name}] = typeName{importDir(fl.f, x.Name), sel.Sel.Name}
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							knobs[knob{typeName{fl.pkg, ts.Name.Name}, id.Name}] = false
						}
					}
				}
			}
		}
	}
	// resolve returns the type a composite literal's type expression names,
	// through a facade alias; the zero typeName if it names no type.
	resolve := func(fl file, typ ast.Expr) typeName {
		var tn typeName
		switch typ := typ.(type) {
		case *ast.Ident:
			tn = typeName{fl.pkg, typ.Name}
		case *ast.SelectorExpr:
			if x, ok := typ.X.(*ast.Ident); ok {
				tn = typeName{importDir(fl.f, x.Name), typ.Sel.Name}
			}
		}
		if a, ok := alias[tn]; ok {
			return a
		}
		return tn
	}
	setByName := func(name string) {
		for k := range knobs {
			if k.field == name {
				knobs[k] = true
			}
		}
	}
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
				switch fn.Name.Name {
				case "defaults", "Defaults", "setDefaults":
					continue // a struct's own defaults are not a setter
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					var tn typeName
					if n.Type != nil {
						tn = resolve(fl, n.Type)
					}
					for _, e := range n.Elts {
						kv, ok := e.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						k := knob{tn, key.Name}
						if _, declared := knobs[k]; declared {
							knobs[k] = true
						} else if n.Type == nil {
							setByName(key.Name)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							setByName(sel.Sel.Name)
						}
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						setByName(sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	var unset []string
	for k, set := range knobs {
		if !set {
			unset = append(unset, k.pkg+"."+k.name+"."+k.field)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s is never set to anything: make it a constant", name)
	}
}

// importDir returns the module-relative directory of the package f imports
// as name, or "" if the import is not from this module.
func importDir(f *ast.File, name string) string {
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == name {
			if p == "reorder" {
				return "."
			}
			if rest, ok := strings.CutPrefix(p, "reorder/"); ok {
				return rest
			}
			return ""
		}
	}
	return ""
}
