-- Mesh micro-benchmarks from §6.3.2 (Figure 9), parameterized by data
-- layout. `DataTable` (lib/datatable) provides both runtime accessor
-- methods and compile-time accessors (quote generators), so the kernels
-- below are written once and staged against either layout.

terralib.require("lib/datatable")
local std = terralib.includec("stdlib.h")
local cmath = terralib.includec("math.h")

-- Compile-time accessor pair for a vertex container of the given layout:
-- read(v, name, i) and write(v, name, i, value) return quotes that index
-- the underlying storage directly (what the paper's compiled methods
-- inline to).
function accessors(layout)
  if layout == "AoS" then
    return {
      read = function(v, name, i)
        return `v.data[i].[name]
      end,
      write = function(v, name, i, value)
        return quote v.data[i].[name] = value end
      end,
    }
  else
    return {
      read = function(v, name, i)
        return `v.[name .. "_arr"][i]
      end,
      write = function(v, name, i, value)
        return quote v.[name .. "_arr"][i] = value end
      end,
    }
  end
end

-- Builds the vertex container type plus the two Figure 9 kernels.
function genmesh(layout)
  local V = DataTable({
    px = float, py = float, pz = float,
    nx = float, ny = float, nz = float,
  }, layout)
  local A = accessors(layout)

  local mk = terra(n : int) : &V
    var v = [&V](std.malloc(sizeof(V)))
    v:init(n)
    return v
  end

  -- Figure 9, row 2: translate every vertex position (streaming access; the
  -- normals share cache lines only in AoS form).
  local translate = terra(v : &V, dx : float, dy : float, dz : float) : {}
    for i = 0, v.n do
      [A.write(v, "px", i, A.read(v, "px", i) + dx)];
      [A.write(v, "py", i, A.read(v, "py", i) + dy)];
      [A.write(v, "pz", i, A.read(v, "pz", i) + dz)];
    end
  end

  -- Figure 9, row 1: average face normals onto vertices (sparse gathers of
  -- positions; AoS keeps a vertex's fields on one cache line).
  local normals = terra(v : &V, tris : &int, nf : int) : {}
    for i = 0, v.n do
      [A.write(v, "nx", i, 0.0)];
      [A.write(v, "ny", i, 0.0)];
      [A.write(v, "nz", i, 0.0)];
    end
    for f = 0, nf do
      var i0 = tris[3 * f]
      var i1 = tris[3 * f + 1]
      var i2 = tris[3 * f + 2]
      var ax = [A.read(v, "px", i1)] - [A.read(v, "px", i0)]
      var ay = [A.read(v, "py", i1)] - [A.read(v, "py", i0)]
      var az = [A.read(v, "pz", i1)] - [A.read(v, "pz", i0)]
      var bx = [A.read(v, "px", i2)] - [A.read(v, "px", i0)]
      var by = [A.read(v, "py", i2)] - [A.read(v, "py", i0)]
      var bz = [A.read(v, "pz", i2)] - [A.read(v, "pz", i0)]
      var fnx = ay * bz - az * by
      var fny = az * bx - ax * bz
      var fnz = ax * by - ay * bx;
      [A.write(v, "nx", i0, A.read(v, "nx", i0) + fnx)];
      [A.write(v, "ny", i0, A.read(v, "ny", i0) + fny)];
      [A.write(v, "nz", i0, A.read(v, "nz", i0) + fnz)];
      [A.write(v, "nx", i1, A.read(v, "nx", i1) + fnx)];
      [A.write(v, "ny", i1, A.read(v, "ny", i1) + fny)];
      [A.write(v, "nz", i1, A.read(v, "nz", i1) + fnz)];
      [A.write(v, "nx", i2, A.read(v, "nx", i2) + fnx)];
      [A.write(v, "ny", i2, A.read(v, "ny", i2) + fny)];
      [A.write(v, "nz", i2, A.read(v, "nz", i2) + fnz)];
    end
    for i = 0, v.n do
      var nx = [A.read(v, "nx", i)]
      var ny = [A.read(v, "ny", i)]
      var nz = [A.read(v, "nz", i)]
      var len = [float](cmath.sqrt(nx * nx + ny * ny + nz * nz))
      if len > 0.0f then
        [A.write(v, "nx", i, nx / len)];
        [A.write(v, "ny", i, ny / len)];
        [A.write(v, "nz", i, nz / len)];
      end
    end
  end

  -- Host I/O helpers, written against the accessor *methods* (so the
  -- method-based interface is exercised too, not just the staged one).
  local upload = terra(v : &V, pos : &float) : {}
    for i = 0, v.n do
      v:set_px(i, pos[3 * i])
      v:set_py(i, pos[3 * i + 1])
      v:set_pz(i, pos[3 * i + 2])
    end
  end
  local readnormals = terra(v : &V, out : &float) : {}
    for i = 0, v.n do
      out[3 * i] = v:get_nx(i)
      out[3 * i + 1] = v:get_ny(i)
      out[3 * i + 2] = v:get_nz(i)
    end
  end
  local readpositions = terra(v : &V, out : &float) : {}
    for i = 0, v.n do
      out[3 * i] = v:get_px(i)
      out[3 * i + 1] = v:get_py(i)
      out[3 * i + 2] = v:get_pz(i)
    end
  end

  return {
    V = V, mk = mk, translate = translate, normals = normals,
    upload = upload, readnormals = readnormals, readpositions = readpositions,
  }
end
