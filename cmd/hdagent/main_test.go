package main

import (
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-checkpoint", "nope", "-listen", "127.0.0.1:0"}); err == nil {
		t.Fatal("accepted unknown checkpoint mode")
	}
	if err := run([]string{"-listen", "not-an-address"}); err == nil {
		t.Fatal("accepted invalid listen address")
	}
}
