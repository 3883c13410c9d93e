module sspd/benchmark

go 1.24

require sspd v0.0.0

replace sspd => ../
