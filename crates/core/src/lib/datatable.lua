-- DataTable (§6.3.2): a type constructor that builds a record container
-- with either array-of-structs or struct-of-arrays layout behind one
-- interface, using Terra's type reflection. Changing the layout of every
-- kernel written against the container is a one-string change.

local std = terralib.includec("stdlib.h")

function DataTable(fields, layout)
  -- Fields in the order the constructor wrote them (`pairs` order).
  local names = terralib.newlist()
  for k, v in pairs(fields) do
    names:insert(k)
  end

  struct T {}
  T.entries:insert { field = "n", type = int }

  if layout == "AoS" then
    -- One struct per row, rows contiguous.
    struct Row {}
    for i, name in ipairs(names) do
      Row.entries:insert { field = name, type = fields[name] }
    end
    T.entries:insert { field = "data", type = &Row }
    terra T:init(n : int) : {}
      self.n = n
      self.data = [&Row](std.malloc(n * sizeof(Row)))
    end
    terra T:free() : {}
      std.free(self.data)
    end
    for i, name in ipairs(names) do
      local ftype = fields[name]
      T.methods["get_" .. name] = terra(self : &T, i : int) : ftype
        return self.data[i].[name]
      end
      T.methods["set_" .. name] = terra(self : &T, i : int, v : ftype) : {}
        self.data[i].[name] = v
      end
    end
  elseif layout == "SoA" then
    -- One contiguous array per field.
    for i, name in ipairs(names) do
      T.entries:insert { field = name .. "_arr", type = &fields[name] }
    end
    local inits = terralib.newlist()
    local frees = terralib.newlist()
    local selfsym = symbol(&T, "self")
    local nsym = symbol(int, "n")
    for i, name in ipairs(names) do
      local ftype = fields[name]
      inits:insert(quote
        selfsym.[name .. "_arr"] = [&ftype](std.malloc(nsym * sizeof(ftype)))
      end)
      frees:insert(quote
        std.free(selfsym.[name .. "_arr"])
      end)
    end
    T.methods["init"] = terra([selfsym], [nsym] : int) : {}
      selfsym.n = nsym;
      [inits]
    end
    T.methods["free"] = terra([selfsym]) : {}
      [frees]
    end
    for i, name in ipairs(names) do
      local ftype = fields[name]
      T.methods["get_" .. name] = terra(self : &T, i : int) : ftype
        return self.[name .. "_arr"][i]
      end
      T.methods["set_" .. name] = terra(self : &T, i : int, v : ftype) : {}
        self.[name .. "_arr"][i] = v
      end
    end
  else
    error("unknown layout: " .. tostring(layout))
  end
  return T
end
