(** The paper's example queries as optimizer-input logical algebra.

    Binding names follow the paper's path naming, so the plans render
    exactly like its figures: [Mat e.dept] introduces binding ["e.dept"],
    which plays the role of the paper's [d]. *)

module Logical = Oodb_algebra.Logical

val q1 : Logical.t
(** Figure 5: name, department name and job name of employees working in
    a plant in Dallas. Three Mats over the Employees set; the Plant class
    has no extent. *)

val q2 : Logical.t
(** Figure 8: cities whose mayor is called Joe (path index on
    [mayor.name] makes collapse-to-index-scan applicable). *)

val q3 : Logical.t
(** Figure 10: Query 2 plus the mayor's age in the projection, requiring
    the mayor component in memory. *)

val q4 : Logical.t
(** Figure 12: tasks with a completion time of 100 hours and a team
    member called Fred (set-valued path; one index on [time], one on
    [name]). *)

val fig2 : Logical.t
(** Figure 2: cities whose mayor has the same name as the country's
    president — the multi-Mat path-expression example. *)

val fig3 : Logical.t
(** Figure 3: the set-valued path [task.team_members] unnested and
    materialized. *)

val fred : Logical.t
(** [Employees where name = "Fred"] — the cardinality-feedback demo
    query: with {!Datagen.generate_skewed} statistics the cold plan is a
    full scan; after one feedback pass the optimizer flips to the
    [employees_name] index. Not part of {!all} (it is not a paper
    query). *)

val join_chain : int -> Logical.t
(** An n-way self-join chain over Employees ([j0.name == j1.name == ...]).
    Not a paper query: the search-scaling workload. The logical closure
    enumerates connected join subplans only, so an n-way chain fills
    n(n+1)/2 memo groups, one per run of adjacent bindings.
    @raise Invalid_argument when the width is below 2. *)

val join_star : int -> Logical.t
(** An n-way self-join star over Employees: [j0] is linked to each of
    [j1 .. j(n-1)]. Its connected subplans are [j0] with any subset of
    the others, so the memo holds 2{^n-1} + n - 1 groups.
    @raise Invalid_argument when the width is below 2. *)

val join_cycle : int -> Logical.t
(** {!join_chain} closed into a ring by [j(n-1).name == j0.name]: n(n-1)
    + 1 connected subplans.
    @raise Invalid_argument when the width is below 3. *)

val all : (string * Logical.t) list
(** Named list of everything above. *)
