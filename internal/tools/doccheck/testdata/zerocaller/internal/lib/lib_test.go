package lib

import "testing"

func TestOnlyCaller(t *testing.T) { TestOnly() }

func TestSetter(t *testing.T) { _ = RunOptions{TestSet: 1} }
