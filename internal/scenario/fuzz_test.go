package scenario_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"mobicore/internal/scenario"
)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL. No input may panic,
// and every trace it accepts must survive WriteJSONL → ReadJSONL as an
// equal Trace whose second export is byte-identical to the first.
func FuzzReadJSONL(f *testing.F) {
	g, err := scenario.NewGenerator(scenario.DayInTheLife(), 42)
	if err != nil {
		f.Fatal(err)
	}
	var generated bytes.Buffer
	if err := g.Generate(30 * time.Second).WriteJSONL(&generated); err != nil {
		f.Fatal(err)
	}
	f.Add(generated.Bytes())
	var hand bytes.Buffer
	if err := handTrace().WriteJSONL(&hand); err != nil {
		f.Fatal(err)
	}
	f.Add(hand.Bytes())
	hdr := `{"format":"mobicore-scenario/1","name":"x","seed":1}` + "\n"
	for _, seed := range []string{
		"",
		hdr,
		hdr + `{"phase":"idle","dur_ns":5,"rate":0,"threads":0}` + "\n",
		hdr + `{"phase":"wakeup","dur_ns":5,"rate":1e300,"threads":3}`,
		hdr + `{"phase":"idle","dur_ns":5,"rate":-0,"threads":0,"extra":[1]}` + "\n",
		`{"format":"mobicore-scenario/1","name":"é\ud800<&>","seed":-9223372036854775808}` + "\n" +
			`{"phase":"foreground","dur_ns":9223372036854775807,"rate":1.5e-7,"threads":1}` + "\n",
		hdr + "\n" + `{"phase":"idle","dur_ns":5,"rate":0,"threads":0}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := scenario.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tr.WriteJSONL(&first); err != nil {
			t.Fatalf("accepted trace does not export: %v", err)
		}
		back, err := scenario.ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("exported trace does not parse: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
		var second bytes.Buffer
		if err := back.WriteJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second export differs:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
