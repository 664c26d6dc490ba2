package memstream

import (
	"reflect"
	"strings"
	"testing"

	"memstream/internal/server"
)

// fillDistinct sets every field of the struct v points at to a non-zero
// value no other numeric field holds: the n-th numeric field gets n, a
// bool true, a string s and a pointer a new zero value.
func fillDistinct(v any, s string) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		n := i + 1
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(float64(n) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(s)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			panic("fillDistinct: unhandled field " + rv.Type().Field(i).Name)
		}
	}
}

// zeroFields names the fields of the struct v that hold their zero value.
func zeroFields(v any) []string {
	rv := reflect.ValueOf(v)
	var zero []string
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			zero = append(zero, rv.Type().Field(i).Name)
		}
	}
	return zero
}

// TestSimulateMapsEveryField: with every SimConfig input set, every
// server.Config field is set except those the root package fixes, and
// every server.Result field the root API reports reaches SimResult. A
// field added to either side without a mapping fails it.
func TestSimulateMapsEveryField(t *testing.T) {
	fixed := map[string]bool{"Disk": true, "FirstStreamID": true, "NoCushion": true, "Trace": true, "Arena": true}

	var cfg SimConfig
	fillDistinct(&cfg, "mems-g1")
	scfg, err := cfg.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range zeroFields(scfg) {
		if !fixed[name] {
			t.Errorf("server.Config.%s is not set from SimConfig", name)
		}
	}

	var res server.Result
	fillDistinct(&res, "")
	for _, name := range zeroFields(simResult(res)) {
		t.Errorf("SimResult.%s is not filled from server.Result", name)
	}
}

// TestSimulateRejectsUnknownArchitecture: an architecture outside the
// four is the simulator's unknown-mode error, not a Direct run.
func TestSimulateRejectsUnknownArchitecture(t *testing.T) {
	res, err := Simulate(SimConfig{Architecture: 7, Streams: 10, BitRate: 1e6})
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("Architecture 7: got %+v, %v; want the unknown-mode error", res, err)
	}
}
