package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/opt"
	"peak/internal/workloads"
)

// mustSpec parses req, failing the test on a user error.
func mustSpec(t *testing.T, what string, req Request) spec {
	t.Helper()
	sp, err := parseSpec(req)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return sp
}

// TestSpecDefaultsShareID: a request that spells out a default — the
// "baseline" noise regime, the "train" dataset, every flag — names the
// same job, checkpoint and canonical request as one that leaves it out.
func TestSpecDefaultsShareID(t *testing.T) {
	every := flagNames(opt.AllFlags())
	slices.Reverse(every)
	every[0] = "-f" + every[0]
	every = append(every, every[1])
	def := mustSpec(t, "defaults", Request{Bench: "MGRID", Machine: "sparc2"})
	for _, req := range []Request{
		{Bench: "MGRID", Machine: "sparc2", Noise: "baseline"},
		{Bench: "MGRID", Machine: "sparc2", Dataset: "train"},
		{Bench: "MGRID", Machine: "sparc2", Flags: every},
		{Bench: "MGRID", Machine: "sparcII", Dataset: "train", Noise: "baseline", Flags: every, DeadlineMS: 5},
	} {
		sp := mustSpec(t, "spelled-out defaults", req)
		if sp.id() != def.id() || sp.checkpointID() != def.checkpointID() || !bytes.Equal(sp.request, def.request) {
			t.Errorf("%+v names %s (%s, request %s), want %s (%s, request %s)", req,
				sp.id(), sp.canonical, sp.request, def.id(), def.canonical, def.request)
		}
		if sp.noise != nil || sp.candidates != nil {
			t.Errorf("%+v: noise %v, candidates %v, want the engine defaults (nil)", req, sp.noise, sp.candidates)
		}
	}
}

// TestSpecIdentityFieldsDistinct: changing any one identity field of a
// request — bench, machine, method, dataset, noise, faults, flag subset —
// names a different canonical spec and a different job ID.
func TestSpecIdentityFieldsDistinct(t *testing.T) {
	base := Request{Bench: "MGRID", Machine: "sparc2"}
	reqs := []Request{base}
	vary := func(set func(*Request)) {
		r := base
		set(&r)
		reqs = append(reqs, r)
	}
	for _, b := range workloads.Names() {
		if b != base.Bench {
			vary(func(r *Request) { r.Bench = b })
		}
	}
	vary(func(r *Request) { r.Machine = "p4" })
	for m := core.MethodCBR; m <= core.MethodWHL; m++ {
		vary(func(r *Request) { r.Method = m.String() })
	}
	vary(func(r *Request) { r.Dataset = "ref" })
	// RegimeNames starts with "baseline", the default spelled out.
	for _, n := range experiments.RegimeNames(mustMachine(t, "sparc2"))[1:] {
		vary(func(r *Request) { r.Noise = n })
	}
	for _, f := range experiments.FaultRegimeNames() {
		vary(func(r *Request) { r.Faults = f })
	}
	all := opt.AllFlags()
	for i := range all {
		vary(func(r *Request) { r.Flags = flagNames(all[i : i+1]) })
		vary(func(r *Request) { r.Flags = flagNames(slices.Delete(slices.Clone(all), i, i+1)) })
	}

	canon := map[string]Request{}
	ids := map[string]string{}
	for _, req := range reqs {
		sp := mustSpec(t, "variant", req)
		if prev, ok := canon[sp.canonical]; ok {
			t.Errorf("%+v and %+v share canonical spec %s", req, prev, sp.canonical)
		}
		canon[sp.canonical] = req
		if prev, ok := ids[sp.id()]; ok && prev != sp.canonical {
			t.Errorf("canonical specs %s and %s share job ID %s", prev, sp.canonical, sp.id())
		}
		ids[sp.id()] = sp.canonical
	}
	if len(ids) != len(reqs) {
		t.Errorf("%d variants named %d jobs, want one each", len(reqs), len(ids))
	}
}

// FuzzSpec feeds arbitrary bytes through the POST /tune decoding and
// parseSpec; neither may panic. A request that parses must name the same
// job under its own canonical request and under every respelling — field
// order, flag order, "-f" prefixes, duplicate flags, defaults spelled out
// or left out, a machine alias, another deadline — and a different job
// once its method or flag subset changes.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		sp, err := parseSpec(req)
		if err != nil {
			return
		}
		if int64(sp.deadline/time.Millisecond) != req.DeadlineMS {
			t.Fatalf("deadline_ms %d parsed as %s", req.DeadlineMS, sp.deadline)
		}
		same := func(what string, body []byte) {
			t.Helper()
			r, err := decodeRequest(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s does not decode: %v", what, body, err)
			}
			got := mustSpec(t, what, r)
			if got.canonical != sp.canonical || got.id() != sp.id() {
				t.Fatalf("%s %s names %s (%s), want %s (%s)", what, body, got.id(), got.canonical, sp.id(), sp.canonical)
			}
		}
		differs := func(what string, r Request) {
			t.Helper()
			got := mustSpec(t, what, r)
			if got.canonical == sp.canonical || got.id() == sp.id() {
				t.Fatalf("%s %+v names %s (%s), as %+v does", what, r, got.id(), got.canonical, req)
			}
		}
		same("canonical request", sp.request)

		// Field order: the same fields as a JSON object with sorted keys.
		plain, _ := json.Marshal(req)
		dec := json.NewDecoder(bytes.NewReader(plain))
		dec.UseNumber()
		var fields map[string]any
		if err := dec.Decode(&fields); err != nil {
			t.Fatal(err)
		}
		sorted, _ := json.Marshal(fields)
		same("reordered", sorted)

		flags := sp.candidates
		if flags == nil {
			flags = opt.AllFlags()
		}
		r := req
		r.Machine = sp.mach.Name
		r.Flags = flagNames(flags)
		slices.Reverse(r.Flags)
		r.Flags[0] = "-f" + r.Flags[0]
		r.Flags = append(r.Flags, r.Flags[len(r.Flags)-1])
		switch req.Dataset {
		case "":
			r.Dataset = "train"
		case "train":
			r.Dataset = ""
		}
		switch req.Noise {
		case "":
			r.Noise = "baseline"
		case "baseline":
			r.Noise = ""
		}
		r.DeadlineMS = (req.DeadlineMS + 1) % 1000
		respelled, _ := json.Marshal(r)
		same("respelled", respelled)

		r = req
		if sp.force == nil {
			r.Method = "CBR"
		} else {
			r.Method = ""
		}
		differs("method changed", r)
		if len(flags) > 1 {
			r = req
			r.Flags = flagNames(flags[1:])
			differs("flag dropped", r)
		}
	})
}
