package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"netalignmc/internal/cache"
)

// goldenSpecs is one spec per problem source. The inline and uploaded
// sources are deliberately non-canonical (comments, tabs, CRLF,
// redundant float spellings, duplicate and symmetric entries) so the
// pinned bytes cover the canonicalization itself, not only the hash.
func goldenSpecs() map[string]Spec {
	return map[string]Spec{
		"text": {
			Method: "bp", Iterations: 10, Approx: true,
			Problem: "# inline\r\nnetalign 1\r\n  alpha 1.50\n\tbeta\t2.0\n" +
				"graph A 3 2\n0 1\n  # indented comment\n1 2\n" +
				"graph B 3 3\n2 1\n0 1\n2 0\n" +
				"graph L 3 3 5\n0 0 1.0\n1 1 1e-7\n2 2 1e22\n0 1 -0\n2 1 0.333333333333333314829616256247\n",
		},
		"smat": {
			Method: "mr", Iterations: 10, MStep: 5,
			A: "3 3 4\n0 1 1\n1 0 1\n1 2 1\n2 1 1\n",
			B: "3 3 2\n0 2 1\n2 2 1\n",
			L: "3 3 4\n0 0 0.5\n1 1 2\n1 1 3\n2 0 1e-3\n",
		},
		"mtx": {
			Method: "bp", Iterations: 10, Matcher: "suitor",
			Alpha: 1, Beta: 3, Format: "mtx",
			A: "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 2\n2 1\n3 2\n",
			B: "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n3 1\n3 2\n",
			L: "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1.25\n2 2 1\n3 3 7e-2\n3 1 4\n",
		},
		"generator": {
			Method: "bp", Iterations: 10, Approx: true,
			Generator: &GeneratorSpec{N: 30, DBar: 3, Seed: 11},
		},
	}
}

// TestCacheKeyGolden pins the content address of one spec per source.
// The key is what every disk cache tier is keyed on and what the
// router's ring places by, so any change to the canonical problem
// bytes or to the fingerprint re-keys every deployed cache and moves
// keys between nodes. These values must never be edited to make a
// change pass.
func TestCacheKeyGolden(t *testing.T) {
	want := map[string]struct{ key, canon string }{
		"text": {
			"c3beb31274c81df981ff4ab0cc89a9dd54b41e4632e61d8ac14f241eae25fda2",
			"505c5369c36fbbce6f52ea0213e748c25a75f1f4d1d6cc79eda08302c98667ba",
		},
		"smat": {
			"ff0b090799aee69dbff6945487b761a183f7e6ac34a7a01fe085680125c10f56",
			"bad68d475ffec2db492b234f4a2037b3a30ed896f865b03995b686d969dd8bc4",
		},
		"mtx": {
			"682394035c2cd968724f050d5d2e20229bef0bb5388d33500432fa1756522bd7",
			"e0ef23f4c8369f1a8807a7144525d3cdbe5d1343d572ba9cf8290759ad18bd3b",
		},
		"generator": {
			"9b55d428082e1105ebb9be2b5fedcd53ff2131c9eed5b168a4ab5b946e1531a4",
			"82bf370d0974255baa90e4ad55ae9f739e4d1a9f259df3062e6923be3c00aa30",
		},
	}
	for name, spec := range goldenSpecs() {
		for _, threads := range []int{1, 3} {
			key, canon, err := spec.CacheKey(threads)
			if err != nil {
				t.Fatalf("%s: CacheKey: %v", name, err)
			}
			sum := sha256.Sum256(canon)
			if got := key.String(); got != want[name].key {
				t.Errorf("%s threads=%d: key %s, want %s", name, threads, got, want[name].key)
			}
			if got := hex.EncodeToString(sum[:]); got != want[name].canon {
				t.Errorf("%s threads=%d: canonical sha256 %s, want %s", name, threads, got, want[name].canon)
			}
		}
	}
}

// TestSpooledProblemMatchesRouterKey: for every source, the node's
// spooled problem.txt, hashed with the spec's fingerprint, is the key
// the router computes with Spec.CacheKey — so the router places a
// submission on the node that will file its result under that key.
func TestSpooledProblemMatchesRouterKey(t *testing.T) {
	mgr, _ := newTestServer(t, cacheConfig(""))
	for name, spec := range goldenSpecs() {
		j, err := mgr.Submit(spec)
		if err != nil {
			t.Fatalf("%s: Submit: %v", name, err)
		}
		pb, err := mgr.Store().LoadProblemBytes(j.ID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp, ok := spec.cacheFingerprint()
		if !ok {
			t.Fatalf("%s: spec is not cacheable", name)
		}
		key, canon, err := spec.CacheKey(2)
		if err != nil {
			t.Fatalf("%s: CacheKey: %v", name, err)
		}
		if !bytes.Equal(pb, canon) {
			t.Errorf("%s: spooled problem.txt differs from the router's canonical bytes", name)
		}
		if got := cache.KeyFor(pb, fp); got != key {
			t.Errorf("%s: node key %s, router key %s", name, got, key)
		}
	}
}

// FuzzSpecCacheKey decodes arbitrary bytes as a v1 job spec the way
// handleSubmit does and, when the spec decodes, keys it twice at
// different thread counts: neither call may panic or stall, and both
// must agree on the error, the key and the canonical bytes. The seeds
// cover every field of the job spec table in docs/api.md and the
// README's submit examples.
func FuzzSpecCacheKey(f *testing.F) {
	for _, seed := range []string{
		`{"method":"bp","iterations":100,"approx":true,"generator":{"n":1000,"dbar":5,"seed":7}}`,
		`{"method":"mr","iterations":20,"mstep":5,"gamma":0.5,"matcher":"suitor","generator":{"type":"synthetic","n":40,"dbar":3,"perturb":0.05,"seed":7}}`,
		`{"batch":4,"threads":2,"timeoutSec":1.5,"progressEvery":5,"checkpointEvery":2,"generator":{"n":120,"dbar":4,"seed":21}}`,
		`{"tenant":"team-a","class":"interactive","deadlineMs":500,"generator":{"n":40,"dbar":3,"seed":8}}`,
		`{"fused":true,"pipeline":true,"reorder":"rcm","generator":{"n":40,"dbar":3,"seed":7}}`,
		`{"reorder":"sideways","generator":{"n":40}}`,
		`{"generator":{"type":"dmela-scere","scale":0.01,"seed":3}}`,
		`{"generator":{"type":"lcsh-wiki","scale":0.001}}`,
		`{"generator":{"n":20000,"dbar":8}}`,
		`{"generator":{"n":400,"dbar":10000}}`,
		`{"problem":"netalign 1\ngraph A 2 1\n0 1\ngraph B 2 1\n0 1\ngraph L 2 2 2\n0 0 1\n1 1 1\n"}`,
		`{"alpha":1,"beta":3,"a":"2 2 2\n0 1 1\n1 0 1\n","b":"2 2 0\n","l":"2 2 1\n1 1 1\n"}`,
		`{"format":"mtx","a":"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n","b":"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 0\n","l":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"}`,
		`{"method":"bp"}`,
		`{"metod":"bp"}`,
	} {
		f.Add([]byte(seed))
	}
	for _, spec := range goldenSpecs() {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		key1, canon1, err1 := spec.CacheKey(1)
		key2, canon2, err2 := spec.CacheKey(2)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("CacheKey errors differ: %v vs %v", err1, err2)
		}
		if key1 != key2 || !bytes.Equal(canon1, canon2) {
			t.Fatalf("CacheKey not deterministic: %s vs %s", key1, key2)
		}
	})
}
