package reorder_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
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
