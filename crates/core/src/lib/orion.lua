-- Orion, the stencil language of §6.2 of the paper, as a Lua library. Lua
-- operators on images build the program, with constant offsets, so every
-- stage is a stencil. A pipeline stages one Terra function per schedule with
-- quotes, escapes and symbols: each intermediate is materialized, inlined or
-- line-buffered, with or without vector(float, 8). The schedule is a Lua value
-- that picks the quotes, so it leaves nothing behind in the bytecode.

local orion = {}
local C = terralib.includec("stdlib.h")
local W = 8 -- vector width: 8 floats, 256 bits
local vec = vector(float, W)
local pvec = &vec
local STRIP = 64 -- rows per strip of the line-buffer schedule

-- The image algebra. A node is a read {input = k or stage = j, dx, dy}, a
-- constant {value = v} or an operation {op = o, a, b}.
local Image = {}
Image.__index = Image

local function image(t) return setmetatable(t, Image) end

local function lift(e)
  if type(e) == "number" then return image { value = e } end
  if getmetatable(e) ~= Image then
    error("orion: expected an image or a number, got " .. type(e))
  end
  return e
end

local function operator(op)
  return function(a, b) return image { op = op, lift(a), lift(b) } end
end
Image.__add, Image.__sub = operator("+"), operator("-")
Image.__mul, Image.__div = operator("*"), operator("/")
Image.min, Image.max = operator("min"), operator("max")
function Image:clamp(lo, hi) return self:max(lo):min(hi) end

-- `f(dx, dy)` is `f` translated by (dx, dy): the paper's `f(-1,0)`.
function Image:__call(dx, dy)
  if self.op then return image { op = self.op, self[1](dx, dy), self[2](dx, dy) } end
  if self.value then return self end
  return image { input = self.input, stage = self.stage, dx = self.dx + dx, dy = self.dy + dy }
end

function orion.input(k) return image { input = k, dx = 0, dy = 0 } end
function orion.stage(j) return image { stage = j, dx = 0, dy = 0 } end

local function radius(e)
  if e.op then return math.max(radius(e[1]), radius(e[2])) end
  if e.value then return 0 end
  return math.max(math.abs(e.dx), math.abs(e.dy))
end

-- `e` translated by (dx, dy), each stage in `inlined` replaced by its
-- definition and every other stage renumbered through `index`.
local function substitute(e, stages, inlined, index, dx, dy)
  if e.op then
    return image { op = e.op, substitute(e[1], stages, inlined, index, dx, dy),
                   substitute(e[2], stages, inlined, index, dx, dy) }
  end
  if e.value then return e end
  if e.stage and inlined[e.stage] then
    return substitute(stages[e.stage], stages, inlined, index, e.dx + dx, e.dy + dy)
  end
  return image { input = e.input, stage = e.stage and index[e.stage], dx = e.dx + dx, dy = e.dy + dy }
end

-- A pipeline of stages over `n_inputs` source images; the last stage added
-- is the output.
local Pipeline = {}
Pipeline.__index = Pipeline

function orion.pipeline(n_inputs)
  return setmetatable({ n_inputs = n_inputs, n = 0, stages = {}, inlined = {} }, Pipeline)
end

-- Adds a stage; returns an un-shifted reference to it.
function Pipeline:stage(e)
  e = lift(e)
  local function check(e)
    if e.op then return check(e[1]) or check(e[2])
    elseif e.input and (e.input < 0 or e.input >= self.n_inputs) then
      error("input " .. e.input .. " out of range")
    elseif e.stage and (e.stage < 0 or e.stage >= self.n) then
      error("stage " .. e.stage .. " referenced before definition")
    end
  end
  check(e)
  self.stages[self.n] = e
  self.n = self.n + 1
  return orion.stage(self.n - 1)
end

-- Per-stage scheduling: stage `j` is recomputed inside its consumers.
function Pipeline:inline(j) self.inlined[j] = true end

-- The stages left after per-stage inlining (of every stage but the output
-- when `all`), numbered from 0, and how many.
function Pipeline:scheduled(all)
  if self.n == 0 then error("pipeline has no stages") end
  if self.inlined[self.n - 1] then error("the output stage cannot be inlined away") end
  local inlined, kept, index, n = {}, {}, {}, 0
  for j = 0, self.n - 2 do inlined[j] = all or self.inlined[j] end
  for j = 0, self.n - 1 do
    if not inlined[j] then
      kept[n] = substitute(self.stages[j], self.stages, inlined, index, 0, 0)
      index[j] = n
      n = n + 1
    end
  end
  return kept, n
end

-- Rows beyond the output that each stage is computed on (the radii
-- downstream of it), and the same in columns rounded up to vectors.
local function halos(stages, n)
  local halo, xhalo = { [n - 1] = 0 }, { [n - 1] = 0 }
  for i = n - 2, 0, -1 do
    local r = radius(stages[i + 1])
    halo[i] = halo[i + 1] + r
    xhalo[i] = math.floor((xhalo[i + 1] + r + W - 1) / W) * W
  end
  return halo, xhalo
end

-- Padding around every buffer so that no read, however scheduled, leaves
-- the allocation, rounded up for vector alignment.
function Pipeline:padding()
  local stages, n = self:scheduled()
  local halo, xhalo = halos(stages, n)
  local need = W
  for i = 0, n - 1 do
    local r = radius(stages[i])
    need = math.max(need, xhalo[i] + r, halo[i] + r)
  end
  return math.ceil(need / W) * W
end

-- The Terra value of `e` at column `x`: a float, or W of them. `src(e)`
-- gives the buffer a read goes to and the row base it indexes from.
local function value(e, x, src, g)
  if e.op then
    local a, b = value(e[1], x, src, g), value(e[2], x, src, g)
    if e.op == "+" then return `[a] + [b]
    elseif e.op == "-" then return `[a] - [b]
    elseif e.op == "*" then return `[a] * [b]
    elseif e.op == "/" then return `[a] / [b]
    else return `[terralib[e.op]]([a], [b]) end
  end
  if e.value then return `[float](e.value) end
  local buf, row = src(e)
  local off = e.dy * g.s + e.dx
  local at = `row + x
  if off ~= 0 then at = `[at] + off end
  if g.vectorize then return `@pvec(&buf[at]) end
  return `buf[at]
end

-- for x = lo, hi (by vectors when vectorized): dst[row + x] = e.
local function xloop(dst, row, lo, hi, e, src, g)
  local x = symbol("x")
  local v = value(e, x, src, g)
  if g.vectorize then return quote for [x] = lo, hi, W do @pvec(&dst[row + x]) = v end end end
  return quote for [x] = lo, hi do dst[row + x] = v end end
end

-- A buffer st_i of `rows(i)` padded rows for every stage but the output,
-- with the statements that allocate and free them.
local function buffers(n, g, rows)
  local st, alloc, free = {}, terralib.newlist(), terralib.newlist()
  for i = 0, n - 2 do
    local buf, bytes = symbol("st" .. i), g.s * rows(i) * 4
    st[i] = buf
    alloc:insert(quote
      var [buf] = [&float](C.malloc(bytes))
      C.memset([&uint8](buf), 0, bytes)
    end)
    free:insert(quote C.free(buf) end)
  end
  return st, alloc, free
end

local schedules = {}

-- One full-sized buffer and loop per stage, as hand-written C would do.
-- Intermediates are computed over their halo so that the boundary condition
-- applies at the source images only. The inline schedule is this one after
-- every stage is substituted into the output with its offsets.
function schedules.materialize(g, stages, n)
  local h, p, s = g.h, g.p, g.s
  local halo, xhalo = halos(stages, n)
  local st, alloc, free = buffers(n, g, function() return h + 2 * p end)
  local loops = terralib.newlist()
  for i = 0, n - 1 do
    local y, row = symbol("y"), symbol("inrow")
    local function src(e) return e.input and g.ins[e.input + 1] or st[e.stage], row end
    loops:insert(quote
      for [y] = [-halo[i]], [h + halo[i]] do
        var [row] = (y + p) * s + p;
        [xloop(i == n - 1 and g.out or st[i], row, -xhalo[i], g.w + xhalo[i], stages[i], src, g)]
      end
    end)
  end
  return quote [alloc]; [loops]; [free] end
end
schedules.inline = schedules.materialize

-- Stages interleaved over strips of STRIP rows. Intermediates live in
-- scratch buffers of STRIP + 2 * halo rows, and each strip recomputes its
-- halo rows (overlapped tiling): a little more arithmetic for the memory
-- traffic of line buffering. Row y of stage j's scratch is y - y0 + halo_j.
function schedules.linebuffer(g, stages, n)
  local h, p, s = g.h, g.p, g.s
  local halo, xhalo = halos(stages, n)
  local st, alloc, free = buffers(n, g, function(i) return STRIP + 2 * halo[i] end)
  local y0, passes = symbol("y0"), terralib.newlist()
  for i = 0, n - 1 do
    local last, hy, top = i == n - 1, halo[i], STRIP + halo[i]
    local y, row, scrd = symbol("y"), symbol("inrow"), symbol("scrd")
    local lo, hi = `y0 - hy, `terralib.min(y0 + top, h + hy)
    if last then lo, hi = `y0, `terralib.min(y0 + STRIP, h) end
    -- Row bases only for what the stage reads and writes: `src` marks them.
    local scr, read, bases = {}, { [-1] = last }, terralib.newlist()
    local function src(e)
      read[e.input and -1 or e.stage] = true
      if e.input then return g.ins[e.input + 1], row end
      scr[e.stage] = scr[e.stage] or symbol("scr" .. e.stage)
      return st[e.stage], scr[e.stage]
    end
    local hx = last and 0 or xhalo[i]
    local loop = xloop(last and g.out or st[i], last and row or scrd, -hx, g.w + hx, stages[i], src, g)
    if read[-1] then bases:insert(quote var [row] = (y + p) * s + p end) end
    for j = 0, i - 1 do
      if read[j] then bases:insert(quote var [scr[j]] = (y - y0 + [halo[j]]) * s + p end) end
    end
    if not last then bases:insert(quote var [scrd] = (y - y0 + hy) * s + p end) end
    passes:insert(quote for [y] = lo, hi do [bases]; [loop] end end)
  end
  return quote [alloc]; for [y0] = 0, h, STRIP do [passes] end; [free] end
end

-- Stages the pipeline for a `w` x `h` image under `strategy` ("materialize",
-- "inline" or "linebuffer"), optionally vectorized, with at least the
-- pipeline's own padding. Returns the Terra function
-- (in0, ..., out : &float) and the padding its buffers need.
function Pipeline:compile(w, h, strategy, vectorize, padding)
  local stages, n = self:scheduled(strategy == "inline")
  local need = self:padding()
  padding = padding or need
  if padding < need then error("padding too small for pipeline") end
  if vectorize and w % W ~= 0 then error("vectorized schedules require W % 8 == 0") end
  local g = { w = w, h = h, p = padding, s = w + 2 * padding, vectorize = vectorize,
              ins = terralib.newlist(), out = symbol(&float, "out") }
  for k = 0, self.n_inputs - 1 do g.ins:insert(symbol(&float, "in" .. k)) end
  local schedule = schedules[strategy] or error("unknown strategy " .. tostring(strategy))
  local body = schedule(g, stages, n)
  return terra([g.ins], [g.out]) [body] end, padding
end

-- The semi-Lagrangian advection of the fluid solver: not a stencil, so it
-- is written directly in Terra, and composes with the staged kernels.
local function advect(n, p, dt)
  local s, dt0, hi = n + 2 * p, dt * n, n - 1.001
  return terra(d0 : &float, u : &float, v : &float, dout : &float)
    for y = 0, n do
      var row = (y + p) * s + p
      for x = 0, n do
        -- backtrace the particle that lands on (x, y)
        var fx = x - [double](dt0) * u[row + x]
        var fy = y - [double](dt0) * v[row + x]
        fx = terralib.max(terralib.min(fx, hi), 0.0)
        fy = terralib.max(terralib.min(fy, hi), 0.0)
        var i0 = [int](fx)
        var j0 = [int](fy)
        var s1 = fx - i0
        var t1 = fy - j0
        var s0 = 1.0 - s1
        var t0 = 1.0 - t1
        var r0 = (j0 + p) * s + p + i0
        var r1 = r0 + s
        dout[row + x] = [float](
            s0 * (t0 * d0[r0] + t1 * d0[r1])
          + s1 * (t0 * d0[r0 + 1] + t1 * d0[r1 + 1]))
      end
    end
  end
end

-- The real-time fluid solver of §6.2 on an `n` x `n` grid (Stam's, with
-- Gauss-Jacobi solves and a zero boundary), every kernel under one schedule.
-- Diffusion and pressure run two chained Jacobi steps per pipeline, so line
-- buffering interleaves pairs of iterations. Returns the padding every field
-- needs and three Terra functions over fields of that padding, whose last
-- argument is the Jacobi iterations per solve (even):
-- step(u, v, dens, sa, sb, p, div, iters) advances the state by one time
-- step; diffuse(x, x0, tmp, iters) diffuses x in place; and
-- project(u, v, p, div, tmp, out, iters) makes (u, v) divergence-free.
-- sa, sb, x0, tmp, p, div and out are scratch.
function orion.fluid(n, dt, diff, strategy, vectorize)
  local input, a = orion.input, dt * diff * (n * n)
  local function diffuse(x, x0)
    return (x0 + (x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1)) * a) * (1 / (1 + 4 * a))
  end
  local function pressure(p, div)
    return (div + p(-1, 0) + p(1, 0) + p(0, -1) + p(0, 1)) * 0.25
  end
  -- A pipeline over inputs f and g of `e`, then of `step(e, g)` if given.
  local f, g = input(0), input(1)
  local function pipeline(e, step)
    local pl = orion.pipeline(2)
    e = pl:stage(e)
    if step then pl:stage(step(e, g)) end
    return pl
  end
  local function gradsub(dx, dy)
    return pipeline(f - (g(dx, dy) - g(-dx, -dy)) * (0.5 * n))
  end
  local pipes = { pipeline(diffuse(f, g), diffuse), pipeline(pressure(f, g), pressure),
                  pipeline((f(1, 0) - f(-1, 0) + g(0, 1) - g(0, -1)) * (-0.5 / n)),
                  gradsub(1, 0), gradsub(0, 1) }
  local padding = 0
  for _, pl in ipairs(pipes) do padding = math.max(padding, pl:padding()) end
  for i, pl in ipairs(pipes) do pipes[i] = pl:compile(n, n, strategy, vectorize, padding) end
  local jdiffuse, jpressure, divergence, gradu, gradv = unpack(pipes)
  local kadvect, bytes = advect(n, padding, dt), (n + 2 * padding) ^ 2 * 4
  local terra solve(x : &float, x0 : &float, tmp : &float, iters : int)
    C.memcpy(x0, x, bytes)
    var cur, nxt = x, tmp
    for i = 0, iters / 2 do
      jdiffuse(cur, x0, nxt)
      cur, nxt = nxt, cur
    end
    if cur ~= x then C.memcpy(x, cur, bytes) end
  end
  local terra project(u : &float, v : &float, p : &float, div : &float, tmp : &float,
                      out : &float, iters : int)
    divergence(u, v, div)
    C.memset(p, 0, bytes)
    var cur, nxt = p, tmp
    for i = 0, iters / 2 do
      jpressure(cur, div, nxt)
      cur, nxt = nxt, cur
    end
    gradu(u, cur, out)
    C.memcpy(u, out, bytes)
    gradv(v, cur, out)
    C.memcpy(v, out, bytes)
  end
  -- x advected by (u, v), through out.
  local terra advectinto(x : &float, u : &float, v : &float, out : &float)
    kadvect(x, u, v, out)
    C.memcpy(x, out, bytes)
  end
  local terra step(u : &float, v : &float, dens : &float, sa : &float, sb : &float,
                   p : &float, div : &float, iters : int)
    solve(u, sb, sa, iters)
    solve(v, sb, sa, iters)
    project(u, v, p, div, sa, sb, iters)
    advectinto(u, u, v, sb)
    advectinto(v, u, v, sb)
    project(u, v, p, div, sa, sb, iters)
    solve(dens, sb, sa, iters)
    advectinto(dens, u, v, sb)
  end
  return { padding = padding, step = step, diffuse = solve, project = project }
end

return orion
