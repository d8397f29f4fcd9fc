//go:build !linux

package main

import "syscall"

// childAttr is nil where the parent-death signal is unavailable.
func childAttr() *syscall.SysProcAttr { return nil }
