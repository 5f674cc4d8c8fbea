package main

import (
	"reflect"
	"testing"
)

// TestFlagsUnusedKeepsInterfaceMethods: on a tiny module, the check reports
// the function nothing calls and none of the methods that are called only
// through an interface (a module interface, fmt.Stringer, and an anonymous
// interface in a type assertion).
func TestFlagsUnusedKeepsInterfaceMethods(t *testing.T) {
	got, err := run("testdata/mod", "testdata/mod/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib/lib.go:21: lib.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report = %q, want %q", got, want)
	}
}
