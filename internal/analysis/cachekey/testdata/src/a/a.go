// Package a is the cachekey fixture; the test points the analyzer's
// harness and phases packages at it, so the local Task, CacheKey, and
// runPhases stand in for hclocksync/internal/harness and
// hclocksync/internal/experiments.
package a

// Task mirrors harness.Task's Config-carrying shape.
type Task struct {
	Suite  string
	Name   string
	Config any
}

// CacheKey mirrors harness.CacheKey's signature: config is argument 4.
func CacheKey(version, suite, task string, seed int64, config any) string {
	return version + suite + task
}

// goodCfg is fully JSON-visible: nothing to report.
type goodCfg struct {
	N     int
	Alpha float64 `json:"alpha"`
}

type badCfg struct {
	N       int
	Workers int  `json:"-"` // want `cache-key field a\.badCfg\.Workers is tagged json:"-" but not annotated`
	jobs    int  // want `cache-key field a\.badCfg\.jobs is unexported and never enters the key`
	Cut     bool `json:",omitempty"` // want `cache-key field a\.badCfg\.Cut is omitempty`
	Nested  nestedCfg
}

// nestedCfg is reachable through badCfg's JSON-visible Nested field, so
// its fields are obligated too.
type nestedCfg struct {
	Hidden int `json:"-"` // want `cache-key field a\.nestedCfg\.Hidden is tagged json:"-" but not annotated`
	Shown  int
}

// okCfg carries the audits the analyzer demands.
type okCfg struct {
	Workers int  `json:"-"`          //synclint:execonly -- parallelism knob; byte-identity at any worker count is pinned by tests
	Cut     bool `json:",omitempty"` //synclint:zerokey -- false means no cut, which is the same experiment as the field being absent
	Size    int
}

// unreached never flows into a Task or CacheKey call: nothing is
// obligated even though it would fail every rule.
type unreached struct {
	hidden  int
	Skipped int `json:"-"`
}

func use() []string {
	var keys []string
	t1 := Task{Suite: "s", Name: "good", Config: goodCfg{N: 1, Alpha: 0.5}}
	t2 := Task{Suite: "s", Name: "bad", Config: badCfg{N: 2}}
	keys = append(keys, CacheKey("v1", t1.Suite, t1.Name, 7, okCfg{Size: 3}))
	// Interface-typed argument: the concrete type was recorded where the
	// value was built, so this call records nothing new.
	keys = append(keys, CacheKey("v1", t2.Suite, t2.Name, 7, t2.Config))
	return keys
}

// runPhases mirrors the experiments phase runner: state is argument 3 and
// is JSON-encoded into every cut snapshot.
func runPhases[S any](cfg int, cut bool, ckpt any, state *S, phases ...func(int)) error {
	return nil
}

// rankState reaches runPhases through a slice; its hidden fields would
// be zeroed by a resume.
type rankState struct {
	Clock   clockState
	End     float64
	scratch []float64 // want `cut-state field a\.rankState\.scratch is unexported and never enters the cut snapshot`
	Tmp     int       `json:"-"` // want `cut-state field a\.rankState\.Tmp is tagged json:"-" but not annotated`
}

// clockState is reachable through rankState.Clock, and model through its
// Models slice, so their fields are obligated too.
type clockState struct {
	Models []model
}

type model struct {
	Slope     float64
	intercept float64 // want `cut-state field a\.model\.intercept is unexported`
}

// cellState carries the audits the rule demands. Its omitempty field
// needs none: the state decodes into a zero value, so an omitted zero
// comes back as zero.
type cellState struct {
	Lats  []float64
	Cache []float64 `json:"-"` //synclint:execonly -- memo rebuilt from Lats by every phase that reads it
	Done  int       `json:",omitempty"`
}

func phased() error {
	ranks := make([]rankState, 4)
	var cell cellState
	if err := runPhases(0, true, nil, &ranks); err != nil {
		return err
	}
	// A non-struct state names no fields to audit.
	lats := make([]float64, 3)
	if err := runPhases(0, true, nil, &lats); err != nil {
		return err
	}
	return runPhases(0, true, nil, &cell)
}
