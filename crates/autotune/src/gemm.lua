-- The DGEMM/SGEMM generator from §6.1 of the paper (Figure 5), written in
-- the combined Lua-Terra language. Lua is the meta-program: it stages an
-- L1-sized matrix-multiply kernel parameterized by block size NB, register
-- blocking RM x RN, vector width V, and the accumulation constant alpha,
-- then composes kernels into a full two-level blocked matmul.

-- A matrix (or vector) of fresh symbols: the paper's symmat helper.
function symmat(name, I, J)
  local t = {}
  if J then
    for i = 0, I - 1 do
      t[i] = {}
      for j = 0, J - 1 do
        t[i][j] = symbol(name .. i .. "_" .. j)
      end
    end
  else
    for i = 0, I - 1 do
      t[i] = symbol(name .. i)
    end
  end
  return t
end

-- Figure 5: generate an L1-resident kernel computing C = alpha*C + A*B over
-- an NB x NB block, with an RM x (RN*V) register block held in vector
-- registers, vectorized loads/stores, and prefetching of B.
function genkernel(NB, RM, RN, V, alpha, T)
  local vector_type = vector(T, V)
  local vector_pointer = &vector_type
  local A, B, C = symbol("A"), symbol("B"), symbol("C")
  local mm, nn = symbol("mm"), symbol("nn")
  local lda, ldb, ldc = symbol("lda"), symbol("ldb"), symbol("ldc")
  local a, b = symmat("a", RM), symmat("b", RN)
  local c, caddr = symmat("c", RM, RN), symmat("caddr", RM, RN)
  local k = symbol("k")
  local loadc, storec = terralib.newlist(), terralib.newlist()
  for m = 0, RM - 1 do
    for n = 0, RN - 1 do
      loadc:insert(quote
        var [caddr[m][n]] = C + m * ldc + n * V
        var [c[m][n]] = alpha * @vector_pointer([caddr[m][n]])
      end)
      storec:insert(quote
        @vector_pointer([caddr[m][n]]) = [c[m][n]]
      end)
    end
  end
  local calcc = terralib.newlist()
  -- Load a row fragment of B as RN vectors.
  for n = 0, RN - 1 do
    calcc:insert(quote
      var [b[n]] = @vector_pointer(&B[n * V])
    end)
  end
  -- Broadcast RM scalars of A's current column.
  for m = 0, RM - 1 do
    calcc:insert(quote
      var [a[m]] = vector_type(A[m * lda])
    end)
  end
  -- The unrolled RM x RN outer product.
  for m = 0, RM - 1 do
    for n = 0, RN - 1 do
      calcc:insert(quote
        [c[m][n]] = [c[m][n]] + [a[m]] * [b[n]]
      end)
    end
  end
  return terra([A] : &T, [B] : &T, [C] : &T,
               [lda] : int64, [ldb] : int64, [ldc] : int64)
    for [mm] = 0, NB, RM do
      for [nn] = 0, NB, RN * V do
        [loadc];
        for [k] = 0, NB do
          prefetch(B + 4 * ldb, 0, 3, 1);
          [calcc];
          B, A = B + ldb, A + 1
        end
        [storec];
        A, B, C = A - NB, B - ldb * NB + RN * V, C + RN * V
      end
      A, B, C = A + lda * RM, B - NB, C + RM * ldc - NB
    end
  end
end

-- Why an NB x NB tiling with an RM x (RN*V) register block of T cannot
-- compute an N x N multiply, or nil when it can. V is at most one 256-bit
-- register.
function gemmfault(N, NB, RM, RN, V, T)
  if NB <= 0 or RM <= 0 or RN <= 0 or V <= 0 then return "NB, RM, RN and V must be positive" end
  if V * terralib.sizeof(T) > 32 then return "V=" .. V .. " is wider than 256 bits of " .. tostring(T) end
  if N % NB ~= 0 then return "N=" .. N .. " is not a multiple of NB=" .. NB end
  if NB % RM ~= 0 then return "NB=" .. NB .. " is not a multiple of RM=" .. RM end
  if NB % (RN * V) ~= 0 then return "NB=" .. NB .. " is not a multiple of RN*V=" .. RN * V end
end

-- Compose L1 kernels into a full N x N multiply (two-level blocking): the
-- alpha=0 kernel initializes each C block on the first k-panel, alpha=1
-- kernels accumulate the rest.
function genmatmul(N, NB, RM, RN, V, T)
  local fault = gemmfault(N, NB, RM, RN, V, T)
  if fault then error("genmatmul: " .. fault) end
  local k0 = genkernel(NB, RM, RN, V, 0, T)
  local k1 = genkernel(NB, RM, RN, V, 1, T)
  return terra(A : &T, B : &T, C : &T)
    for mb = 0, N, NB do
      for nb = 0, N, NB do
        k0(A + mb * N, B + nb, C + mb * N + nb, N, N, N)
        for kb = NB, N, NB do
          k1(A + mb * N + kb, B + kb * N + nb, C + mb * N + nb, N, N, N)
        end
      end
    end
  end
end

-- Baseline 1: the naive triple loop ("unblocked C code").
function gennaive(N, T)
  return terra(A : &T, B : &T, C : &T)
    for i = 0, N do
      for j = 0, N do
        var sum : T = 0
        for k = 0, N do
          sum = sum + A[i * N + k] * B[k * N + j]
        end
        C[i * N + j] = sum
      end
    end
  end
end

-- Baseline 2: cache-blocked but neither register-blocked nor vectorized
-- ("Blocked" in Figure 6).
function genblocked(N, NB, T)
  local fault = gemmfault(N, NB, 1, 1, 1, T)
  if fault then error("genblocked: " .. fault) end
  return terra(A : &T, B : &T, C : &T)
    for i = 0, N do
      for j = 0, N do
        C[i * N + j] = 0
      end
    end
    for mb = 0, N, NB do
      for kb = 0, N, NB do
        for nb = 0, N, NB do
          for i = mb, mb + NB do
            for k = kb, kb + NB do
              var aik = A[i * N + k]
              for j = nb, nb + NB do
                C[i * N + j] = C[i * N + j] + aik * B[k * N + j]
              end
            end
          end
        end
      end
    end
  end
end

-- The auto-tuner's search space at size N, in NB, RM, RN, V order: the
-- paper's "reasonable values for the parameters" that tile N.
function gemmconfigs(N, T)
  local out = terralib.newlist()
  for _, NB in ipairs({ 16, 32, 64 }) do
    for _, RM in ipairs({ 1, 2, 4 }) do
      for _, RN in ipairs({ 1, 2, 4 }) do
        for _, V in ipairs({ 2, 4, 8 }) do
          if not gemmfault(N, NB, RM, RN, V, T) then
            out:insert({ NB = NB, RM = RM, RN = RN, V = V })
          end
        end
      end
    end
  end
  return out
end

-- The auto-tuner of §6.1: stages every candidate, times `reps` runs of it
-- after one warm-up on the caller's A, B and C, and returns the fastest
-- configuration with its GFLOPS.
function gemmtune(N, T, A, B, C, reps)
  local best, bestflops
  for _, c in ipairs(gemmconfigs(N, T)) do
    local f = genmatmul(N, c.NB, c.RM, c.RN, c.V, T)
    f(A, B, C)
    local start = terralib.currenttimeinseconds()
    for _ = 1, reps do f(A, B, C) end
    local gflops = 2 * N ^ 3 / ((terralib.currenttimeinseconds() - start) / reps) / 1e9
    if not best or gflops > bestflops then best, bestflops = c, gflops end
  end
  if not best then error("gemmtune: no configuration tiles N=" .. N) end
  return best, bestflops
end
