-- A single-inheritance class system with multiple interfaces (§6.3.1),
-- implemented entirely with Terra's type reflection: vtables computed by a
-- __finalizelayout metamethod, method stubs generated from reflected
-- function types, and subtyping implemented by a user-defined __cast.
-- The design follows the subset of Stroustrup's multiple-inheritance layout
-- the paper describes: a class's layout begins with its parent's, so child
-- pointers cast to parent pointers; each implemented interface contributes
-- a fat-pointer subobject holding its own vtable.

local J = {}

-- Per-class metadata, keyed by the struct type itself.
local classmeta = {}
-- Per-interface metadata, keyed by the interface's instance type `I`.
local interfacemeta = {}

local function getmeta(T)
  if classmeta[T] == nil then
    classmeta[T] = {
      parent = nil,
      interfaces = terralib.newlist(),
      -- methodnames in vtable-slot order; impls maps name -> terra function
      methodnames = terralib.newlist(),
      impls = {},
      finalized = false,
    }
  end
  return classmeta[T]
end

-- Declares an interface from { name = fntype } (method types written
-- without the receiver, e.g. { draw = {} -> {} }).
function J.interface(methods)
  local names = terralib.newlist()
  for k, v in pairs(methods) do
    names:insert(k)
  end
  struct IVT {}
  struct I {}
  I.entries:insert { field = "__ivtable", type = &IVT }
  local iface = { vtabletype = IVT, type = I, names = names, methods = methods }
  -- Each vtable entry takes the interface pointer itself; the concrete
  -- class's thunk recovers the object from it.
  for i, name in ipairs(names) do
    local ftype = methods[name]
    local params = terralib.newlist({ &I })
    params:insertall(ftype.parameters)
    IVT.entries:insert {
      field = name,
      type = terralib.funcpointer(params, ftype.returns),
    }
  end
  -- Interface stubs: calling a method on a &I dispatches through its vtable.
  for i, name in ipairs(names) do
    local ftype = methods[name]
    local params = ftype.parameters:map(symbol)
    local selfsym = symbol(&I, "self")
    I.methods[name] = terra([selfsym], [params]) : [ftype.returns]
      return selfsym.__ivtable.[name](selfsym, [params])
    end
  end
  interfacemeta[I] = iface
  return I
end

function J.extends(child, parent)
  local m = getmeta(child)
  assert(m.parent == nil, "a class can extend only one parent")
  m.parent = parent
  getmeta(parent) -- ensure the parent participates in the class system
  J.installmetamethods(child)
  J.installmetamethods(parent)
end

function J.implements(class, I)
  local m = getmeta(class)
  m.interfaces:insert(I)
  J.installmetamethods(class)
end

function J.issubclass(child, parent)
  local m = classmeta[child]
  while m ~= nil do
    if m.parent == parent then
      return true
    end
    m = classmeta[m.parent]
  end
  return false
end

function J.implementsinterface(class, I)
  local m = classmeta[class]
  while m ~= nil do
    for i, x in ipairs(m.interfaces) do
      if x == I then
        return true
      end
    end
    m = classmeta[m.parent]
  end
  return false
end

-- Collect (name, impl, owner) for the full method table of T, parent slots
-- first so child vtables are prefix-compatible with parent vtables.
local function collectmethods(T)
  local m = classmeta[T]
  local slots = terralib.newlist()
  local index = {}
  if m.parent ~= nil then
    for i, s in ipairs(collectmethods(m.parent)) do
      slots:insert { name = s.name, impl = s.impl }
      index[s.name] = i
    end
  end
  for i, name in ipairs(m.methodnames) do
    local impl = m.impls[name]
    if index[name] ~= nil then
      slots[index[name]].impl = impl -- override keeps the parent's slot
    else
      slots:insert { name = name, impl = impl }
      index[name] = #slots
    end
  end
  return slots
end

-- The heart of the system: computes layout, vtables, stubs (run by the
-- typechecker right before the type is first examined).
local function finalize(T)
  local m = getmeta(T)
  if m.finalized then
    return
  end
  m.finalized = true

  -- Methods defined so far via `terra T:name(...)` live in T.methods.
  for name, fn in pairs(T.methods) do
    if terralib.isfunction(fn) then
      m.methodnames:insert(name)
      m.impls[name] = fn
    end
  end

  -- Parent first.
  if m.parent ~= nil then
    finalize(m.parent)
  end

  -- Vtable struct: one function pointer per slot, prefix-compatible with
  -- the parent's vtable.
  struct VT {}
  local slots = collectmethods(T)
  for i, slot in ipairs(slots) do
    local ftype = slot.impl:gettype()
    local params = terralib.newlist({ &T })
    for j = 2, #ftype.parameters do
      params:insert(ftype.parameters[j])
    end
    VT.entries:insert {
      field = slot.name,
      type = terralib.funcpointer(params, ftype.returns),
    }
  end
  m.vtabletype = VT
  m.vtable = global(VT)

  -- Rebuild the layout: vtable pointer, parent data fields, interface
  -- subobjects, own fields.
  local userentries = T.entries
  local newentries = terralib.newlist()
  newentries:insert { field = "__vtable", type = &VT }
  local function parentfields(P)
    if P == nil then
      return
    end
    local pm = classmeta[P]
    parentfields(pm.parent)
    for i, e in ipairs(pm.userentries) do
      newentries:insert { field = e.field, type = e.type }
    end
    for i, I in ipairs(pm.interfaces) do
      newentries:insert { field = "__if_" .. interfacemeta[I].label, type = I }
    end
  end
  parentfields(m.parent)
  -- Label interfaces deterministically for field naming.
  for i, I in ipairs(m.interfaces) do
    if interfacemeta[I].label == nil then
      interfacemeta[I].label = tostring(#newentries) .. "_" .. i
    end
  end
  m.userentries = terralib.newlist()
  for i, e in ipairs(userentries) do
    local f = e.field
    local ty = e.type
    m.userentries:insert { field = f, type = ty }
    newentries:insert { field = f, type = ty }
  end
  local ifacefields = terralib.newlist()
  for i, I in ipairs(m.interfaces) do
    local label = interfacemeta[I].label
    newentries:insert { field = "__if_" .. label, type = I }
    ifacefields:insert { iface = I, field = "__if_" .. label }
  end
  T.entries = newentries

  -- Fill the class vtable and generate dispatch stubs.
  local vt = m.vtable
  local fills = terralib.newlist()
  for i, slot in ipairs(slots) do
    local entrytype = nil
    for j, e in ipairs(VT.entries) do
      if e.field == slot.name then
        entrytype = e.type
      end
    end
    local impl = slot.impl
    fills:insert(quote
      vt.[slot.name] = [entrytype]([impl])
    end)
  end
  -- Interface vtables: thunks recover the object from the subobject pointer.
  local ivfills = terralib.newlist()
  local ivglobals = terralib.newlist()
  for i, rec in ipairs(ifacefields) do
    local iface = interfacemeta[rec.iface]
    local ivt = global(iface.vtabletype)
    ivglobals:insert { g = ivt, field = rec.field, iface = rec.iface }
    for j, name in ipairs(iface.names) do
      local ftype = iface.methods[name]
      local impl = nil
      for k, slot in ipairs(slots) do
        if slot.name == name then
          impl = slot.impl
        end
      end
      assert(impl ~= nil, "class is missing interface method " .. name)
      local params = ftype.parameters:map(symbol)
      local iself = symbol(&rec.iface, "iself")
      local off = terralib.offsetof(T, rec.field)
      local thunk = terra([iself], [params]) : [ftype.returns]
        var obj = [&T]([&uint8](iself) - off)
        return [impl](obj, [params])
      end
      local entrytype = nil
      for k, e in ipairs(iface.vtabletype.entries) do
        if e.field == name then
          entrytype = e.type
        end
      end
      ivfills:insert(quote
        ivt.[name] = [entrytype]([thunk])
      end)
    end
  end

  -- Object initializer: points the object at its class and interface
  -- vtables (and the parent's, recursively, by re-pointing the shared
  -- prefix at the *child* tables — that is what makes dispatch virtual).
  local initstmts = terralib.newlist()
  local selfsym = symbol(&T, "self")
  initstmts:insert(quote
    selfsym.__vtable = [&VT](&vt)
  end)
  for i, rec in ipairs(ivglobals) do
    local g = rec.g
    initstmts:insert(quote
      selfsym.[rec.field].__ivtable = &g
    end)
  end
  T.methods.initclass = terra([selfsym]) : {}
    [initstmts]
  end

  -- Dispatch stubs replace the direct implementations in the method table
  -- (the paper's stub-generation loop).
  for i, slot in ipairs(slots) do
    local fntype = slot.impl:gettype()
    local params = fntype.parameters:map(symbol)
    local stubself = symbol(&T, "self")
    local rest = terralib.newlist()
    for j = 2, #params do
      rest:insert(params[j])
    end
    T.methods[slot.name] = terra([stubself], [rest]) : [fntype.returns]
      return stubself.__vtable.[slot.name](stubself, [rest])
    end
    T.methods[slot.name .. "_direct"] = slot.impl
  end

  -- Run the vtable initializers now (they are ordinary Terra functions).
  local dofill = terra() : {}
    [fills];
    [ivfills]
  end
  dofill()

  -- Subtyping conversions.
  T.metamethods.__cast = function(from, to, exp)
    if from:ispointer() and to:ispointer() then
      if J.issubclass(from.type, to.type) then
        return `[to](exp)
      end
      for i, rec in ipairs(ifacefields) do
        if rec.iface == to.type then
          return `&exp.[rec.field]
        end
      end
    end
    error("not a subtype")
  end
end

function J.installmetamethods(T)
  local m = getmeta(T)
  T.metamethods.__finalizelayout = function(TT)
    finalize(TT)
  end
end

-- Classes that neither extend nor implement still get vtables when passed
-- through J.class.
function J.class(T)
  J.installmetamethods(T)
  return T
end

return J
