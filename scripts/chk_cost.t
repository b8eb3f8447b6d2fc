-- The naive GEMM of `gemm-naive`, the same loops twice: `proven` runs them
-- on buffers allocated in the same function with stage-constant sizes
-- (checkelim proves every access: `chk` false), `checked` on pointers a
-- caller passes (nothing to prove them with: every access checked).
-- Driven by scripts/chk_cost.sh; usage: terra scripts/chk_cost.t proven|checked
local std = terralib.includec("stdlib.h")
local io = terralib.includec("stdio.h")
local N = 128
local mode = arg[1]
assert(mode == "proven" or mode == "checked", "usage: chk_cost.t proven|checked")

local function loops(A, B, D)
    return quote
        var s : int64 = 428555092
        for i = 0, [N * N] do
            s = (s * 1103515245LL + 12345LL) % 2147483648LL
            A[i] = (s >> 16) % 7 - 3
            s = (s * 1103515245LL + 12345LL) % 2147483648LL
            B[i] = (s >> 16) % 5 - 2
        end
        for i = 0, [N] do
            for j = 0, [N] do
                var sum = 0.0
                for k = 0, [N] do
                    sum = sum + A[i * [N] + k] * B[k * [N] + j]
                end
                D[i * [N] + j] = sum
            end
        end
        var r = 0.0
        for i = 0, [N * N] do
            r = r + D[i] * ((i % 13) + 1)
        end
        io.printf("chk-cost n=%d checksum=%.1f\n", [N], r)
    end
end

-- Too large for the inliner, so its accesses stay the callee's.
terra kernel(A : &double, B : &double, D : &double)
    [loops(A, B, D)]
end
local function called(A, B, D)
    return quote kernel(A, B, D) end
end
local run = mode == "checked" and called or loops

terra main()
    var A = [&double](std.malloc([N * N * 8]))
    var B = [&double](std.malloc([N * N * 8]))
    var D = [&double](std.malloc([N * N * 8]));
    [run(A, B, D)]
    std.free([&int8](A))
    std.free([&int8](B))
    std.free([&int8](D))
end
main()
