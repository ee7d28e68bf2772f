module emptyheaded/benchmark

go 1.24

require emptyheaded v0.0.0

replace emptyheaded => ../
