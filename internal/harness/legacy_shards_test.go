package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"
)

// Specs and work items minted while the simulator still had a sharded
// engine may carry a "shards" field. The field no longer exists: it
// decodes to nothing, so a legacy spec names the same cell — and the same
// result — as the spec without it.

// resultFingerprint hashes a cell's full RunResult (cycles, stats, energy,
// quality) via its JSON form — the same serialization the disk cache
// stores, so equality here is equality of everything a sweep can observe.
func resultFingerprint(t *testing.T, res RunResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ablationGolden holds the resultFingerprint of every protocol-ablation
// cell (Options{Scale: 1, Threads: 24}), recorded while shard counts 1, 2,
// 4 and 8 all produced exactly these results.
var ablationGolden = map[string]string{
	"protocols histogram mesi":                "93f6aebfb9ef349ea331c634131ec3f4c3bd113caa7383827ad2965b7164cd83",
	"protocols histogram ghostwriter":         "a6e314bddf24ee2ea9864716c1d0d14227cd7dc7fa1be567524d03a74e94e3d9",
	"protocols histogram gw-noGI":             "93f6aebfb9ef349ea331c634131ec3f4c3bd113caa7383827ad2965b7164cd83",
	"protocols linear_regression mesi":        "cb1e3eaa7c43d1ece9ef4d715574965cc04865f143626861c933f2d16655a0c8",
	"protocols linear_regression ghostwriter": "33efffda95983f6eea8d61b144ed2667972085710141f56bdbcbbf6bbdeaf791",
	"protocols linear_regression gw-noGI":     "f7be48711bc4f432ed140ea40aaf6d6a47dafdb240b7d483b9a766e2e7737a12",
	"protocols pca mesi":                      "7de546bae4db31d1457b6b118c19000645b6f54c50201a6a48d709258ad27bee",
	"protocols pca ghostwriter":               "8ac2172c6e71165fe50b08fea78761bdfd97422a9335dcf663b2a31becc4b848",
	"protocols pca gw-noGI":                   "ad73f28cf26327cd3efb4ac6e21e88931d343494daf4e9fcfc478527495821a6",
	"protocols blackscholes mesi":             "dd8807a4df5b2564a3ed12872ddb3cbbf2db19d2e1ac77fc9096c507e8681fce",
	"protocols blackscholes ghostwriter":      "0cab057b5361131b4a94e070050457c4f5949654010c1a6bed2192c709bea1c4",
	"protocols blackscholes gw-noGI":          "dd8807a4df5b2564a3ed12872ddb3cbbf2db19d2e1ac77fc9096c507e8681fce",
	"protocols inversek2j mesi":               "64de67bcc3f9c7a54c80ea409314473fbcf31366734342ca7503a829f6f5ce61",
	"protocols inversek2j ghostwriter":        "b1ca94e9b261bf2d8232192d1cae289b08557d4005825a3da2bc212e17b58a00",
	"protocols inversek2j gw-noGI":            "879cf89cf9b06c0776eef8939737593165ab0c18eb1a71380ef5a6127b219a8e",
	"protocols jpeg mesi":                     "71a036f960e1a20862314a2620a587ae96f61b1360dc614cbf4e36376a24a5cb",
	"protocols jpeg ghostwriter":              "ead75030a56c50b7fd02d84f56dd445852e3ecfa2dd61528632de393fe0f34c9",
	"protocols jpeg gw-noGI":                  "4608975f6a9d604e3e34ddd43ff47bb6278ab905f89732f9d3d9f1c8c7f6a6fb",
}

// withLegacyShards returns s's JSON form with a "shards":4 field added, as
// a sweep manifest written by the sharded-engine era carried it.
func withLegacyShards(t *testing.T, s Spec) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	m["shards"] = 4
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardDeterminismAblationGrid runs every cell of the protocol-ablation
// grid (Table 2 suite × registered protocol tables) from a legacy spec
// carrying "shards":4 and requires the cell's own key and the golden
// RunResult the sharded engine produced at every shard count.
func TestShardDeterminismAblationGrid(t *testing.T) {
	jobs := protoJobs(Options{Scale: 1, Threads: 24})
	if testing.Short() {
		jobs = jobs[:3] // one application, all protocols
	}
	for _, j := range jobs {
		j := j
		t.Run(j.Label, func(t *testing.T) {
			t.Parallel()
			var s Spec
			if err := json.Unmarshal(withLegacyShards(t, j.Spec), &s); err != nil {
				t.Fatal(err)
			}
			if s.Key() != j.Spec.Key() {
				t.Fatalf("legacy spec key %s, want %s", s.Key(), j.Spec.Key())
			}
			res, err := executeSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := ablationGolden[j.Label]
			if !ok {
				t.Fatalf("no golden result for %q", j.Label)
			}
			if got := resultFingerprint(t, res); got != want {
				t.Errorf("result fingerprint %s, want golden %s", got, want)
			}
		})
	}
}

// legacyShardsItem is a work item minted by the sharded-engine era for
// RunApp("bad_dot_product", Options{Scale: 1, Threads: 8, Shards: 4},
// d=4): its key hashed the shards field into the key material.
const legacyShardsItem = `{"key":"9ef078b43efe5cebc20bbeb599d631401c07280c5a4bd37150a8ac5d7e8a8381",` +
	`"spec":{"app":"bad_dot_product","scale":1,"threads":8,"ddist":4,"profile":false,"shards":4,` +
	`"config":{"Protocol":0,"Policy":0,"Cores":0,"GITimeout":0,"ErrorBound":0,"AdaptiveGITimeout":false,` +
	`"StaleLoads":false,"MSI":false,"MigratoryOpt":false,"ProfileSimilarity":false}}}`

// TestLegacyShardsSpecKey: a spec carrying "shards":4 decodes, and its key
// is the key of the same spec without the field — the one minted before
// the sharded engine existed, so unsharded cache entries stay valid.
func TestLegacyShardsSpecKey(t *testing.T) {
	var it WorkItem
	if err := json.Unmarshal([]byte(legacyShardsItem), &it); err != nil {
		t.Fatalf("legacy work item does not decode: %v", err)
	}
	want := specFor("bad_dot_product", fastOptions(), 4, false, 0)
	if it.Spec != want {
		t.Fatalf("legacy spec decoded to %+v, want %+v", it.Spec, want)
	}
	const unshardedKey = "bcc600cc178a0a6a859a0960cce21e5b69e48a1f0cbdcd07c5bb7ab8ada0a5f2"
	if got := it.Spec.Key(); got != unshardedKey || got != want.Key() {
		t.Fatalf("legacy spec key %s, want %s", got, unshardedKey)
	}
}

// TestLegacyShardsItemRejected: the dispatcher refuses a work item whose
// key was minted with the shards field. The key no longer matches its
// spec, so accepting it would dispatch a cell whose completion lands under
// a different key and the sweep could never finish.
func TestLegacyShardsItemRejected(t *testing.T) {
	var it WorkItem
	if err := json.Unmarshal([]byte(legacyShardsItem), &it); err != nil {
		t.Fatal(err)
	}
	d, _ := newManualDispatcher(time.Minute)
	sum := d.Submit([]WorkItem{it}, nil)
	if sum.Rejected != 1 || sum.Queued != 0 || sum.Known != 0 || sum.Cached != 0 {
		t.Fatalf("submit = %+v, want the legacy-keyed item rejected", sum)
	}
	if st := d.Status(); st.Total != 0 {
		t.Fatalf("rejected item leaked into the manifest: %+v", st)
	}
}
