module pyquery/benchmark

go 1.24

require pyquery v0.0.0

replace pyquery => ../
