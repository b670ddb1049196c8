package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestProvenanceRoundTrip(t *testing.T) {
	g := New()
	a := g.Add(Task{Name: "load", Parent: -1, Cost: 1, Cores: 1, OutBytes: 64})
	g.Add(Task{Name: "fit", Parent: -1, Cost: 5, Cores: 8,
		Deps: []Dep{{Task: a, ViaMaster: true, OrderOnly: true}}})

	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	p := g.Export("csvm-fit", map[string]string{"block_rows": "50"}, now)
	if p.TaskCount != 2 || p.TotalCost != 6 || p.Workflow != "csvm-fit" {
		t.Fatalf("export summary: %+v", p)
	}

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, want := range []string{`"workflow": "csvm-fit"`, `"block_rows": "50"`, `"critical_path_sec"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}

	p2, g2, err := ReadProvenance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Workflow != "csvm-fit" || p2.Metadata["block_rows"] != "50" {
		t.Fatalf("decoded provenance: %+v", p2)
	}
	if g2.Len() != 2 {
		t.Fatalf("reconstructed graph has %d tasks", g2.Len())
	}
	t2, _ := g2.Task(1)
	if len(t2.Deps) != 1 || !t2.Deps[0].ViaMaster || !t2.Deps[0].OrderOnly {
		t.Fatalf("dep flags lost: %+v", t2.Deps)
	}
	if g2.CriticalPath() != g.CriticalPath() {
		t.Fatal("reconstructed graph differs")
	}
}

func TestReadProvenanceRejectsGarbage(t *testing.T) {
	if _, _, err := ReadProvenance(strings.NewReader("not json")); err == nil {
		t.Fatal("want decode error")
	}
}

func TestReadProvenanceRejectsBadOrdering(t *testing.T) {
	js := `{"workflow":"x","tasks":[{"ID":5,"Name":"t","Parent":-1,"Cost":1,"Cores":1}]}`
	if _, _, err := ReadProvenance(strings.NewReader(js)); err == nil {
		t.Fatal("want ordering error")
	}
}

// FuzzReadProvenance feeds ReadProvenance arbitrary bytes. It must never
// panic, and a record it accepts must survive the graph's analyses and
// export, write and read back to the same tasks.
func FuzzReadProvenance(f *testing.F) {
	g := New()
	a := g.Add(Task{Name: "load", Parent: -1, Cost: 1, Cores: 1, OutBytes: 64})
	b := g.Add(Task{Name: "fit", Parent: -1, Cost: 5, Cores: 8,
		Deps: []Dep{{Task: a, ViaMaster: true, OrderOnly: true}}})
	g.Add(Task{Name: "epoch", Parent: b, Cost: 2, GPUs: 1, Retries: 2, BackoffSec: 0.5,
		Deps: []Dep{{Task: a}}})
	var seed bytes.Buffer
	if err := g.Export("seed", map[string]string{"k": "v"}, time.Unix(0, 0).UTC()).WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, hostile := range []string{
		`{"tasks":[{"ID":1,"Name":"t","Parent":-1,"Cost":1,"Cores":1}]}`,
		`{"tasks":[{"ID":0,"Name":"t","Parent":-1,"Cost":1,"Cores":1,"Deps":[{"Task":1}]}]}`,
		`{"tasks":[{"ID":0,"Name":"t","Parent":-5,"Cost":1,"Cores":1}]}`,
		`{"tasks":[{"ID":0,"Name":"t","Parent":-1,"Cost":1,"Cores":0}]}`,
	} {
		f.Add([]byte(hostile))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, g, err := ReadProvenance(bytes.NewReader(data))
		if err != nil {
			return
		}
		g.CriticalPath()
		g.MaxWidth()
		g.DOT(p.Workflow)
		var out bytes.Buffer
		if err := g.Export(p.Workflow, p.Metadata, time.Unix(0, 0).UTC()).WriteJSON(&out); err != nil {
			t.Fatalf("accepted record does not write: %v", err)
		}
		p2, _, err := ReadProvenance(&out)
		if err != nil {
			t.Fatalf("written record does not read back: %v", err)
		}
		if (len(p.Tasks) > 0 || len(p2.Tasks) > 0) && !reflect.DeepEqual(p2.Tasks, p.Tasks) {
			t.Fatalf("round trip changed the tasks:\n%+v\n%+v", p.Tasks, p2.Tasks)
		}
	})
}

func TestReadProvenanceRejectsInvalidGraph(t *testing.T) {
	js := `{"workflow":"x","tasks":[{"ID":0,"Name":"t","Parent":3,"Cost":1,"Cores":1}]}`
	if _, _, err := ReadProvenance(strings.NewReader(js)); err == nil {
		t.Fatal("want validation error")
	}
}
