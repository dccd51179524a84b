module Logical = Oodb_algebra.Logical
module Lprops = Oodb_cost.Lprops

module M = struct
  module Op = struct
    type t = Logical.op

    let arity = Logical.arity

    let kind = Logical.kind

    let kinds = Logical.kinds

    let equal (a : t) (b : t) = Stdlib.compare a b = 0

    let hash (t : t) = Hashtbl.hash t

    let pp = Logical.pp_op
  end

  module Alg = struct
    type t = Physical.t

    let pp = Physical.pp
  end

  module Lprop = struct
    type t = Lprops.t

    let pp = Lprops.pp
  end

  module Typ = struct
    type t = Oodb_algebra.Typing.t

    let equal = Oodb_algebra.Typing.equal

    let pp = Oodb_algebra.Typing.pp
  end

  module Pprop = Physprop

  module Cost = Oodb_cost.Cost
end

module Engine = Volcano.Make (M)

let rec expr_of_logical (t : Logical.t) =
  Engine.Expr (t.Logical.op, List.map expr_of_logical t.Logical.inputs)

let scope_of ctx g = List.map fst (Engine.group_lprop ctx g).Lprops.bindings
