module parulel/benchmark

go 1.22

require parulel v0.0.0

replace parulel => ../
