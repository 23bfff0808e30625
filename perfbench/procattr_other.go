//go:build !linux

package main

import "syscall"

// childAttr is the default elsewhere: only Linux has a parent-death signal.
func childAttr() *syscall.SysProcAttr { return nil }
