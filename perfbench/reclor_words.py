"""Hand-written templates and word lists for the ``prompt`` workload.

Each template yields one sentence.  ``CORE`` templates stay inside the core
grammar (copula + one-word attribute clauses), ``EXTENDED`` templates use
the verb phrases only the extended grammar normalizes ("will not be able
to", "have no", "can/cannot", "at least some", "... at all"), and ``FREE``
templates are ordinary reading-comprehension prose that the grammar either
rejects (punctuation, digits, lower-case subjects) or parses into a shape
no default law applies to.  Slot lists are long enough that few sentences
repeat across records.

The two clauses of one sentence never pair the same subject with the same
predicate, so no sentence states a clause together with its own negation:
the default laws' negative constructions stay non-equivalent and the
oracle gate passes.
"""

NAMES = (
    "Alice", "Brian", "Carla", "Derek", "Elena", "Felix", "Grace", "Hector",
    "Irene", "Jonah", "Karen", "Lucas", "Maria", "Nolan", "Olivia", "Pedro",
    "Quinn", "Rosa", "Simon", "Tara", "Umar", "Vera", "Wendy", "Xavier",
    "Yusuf", "Zoe", "Bruno", "Clara", "Dmitri", "Esther", "Farah", "Gideon",
)

ADJECTIVES = (
    "punctual", "honest", "generous", "diligent", "curious", "patient",
    "modest", "loyal", "eager", "candid", "frugal", "prudent", "stubborn",
    "cheerful", "nervous", "thorough", "creative", "reliable", "ambitious",
    "skeptical", "polite", "decisive", "organized", "talkative", "humble",
    "competent", "qualified", "eligible", "available", "present",
)

ABILITIES = (
    "use a computer", "vote in the election", "enter the building",
    "renew the permit", "finish the report", "join the club",
    "apply for the grant", "drive a truck", "attend the meeting",
    "read the contract", "submit the application", "borrow the equipment",
    "teach the seminar", "repair the engine", "publish the findings",
    "open an account", "board the flight", "register for classes",
    "operate the crane", "access the archive", "sign the lease",
    "write your essays using a word processing program",
)

POSSESSIONS = (
    "keyboarding skills", "a valid license", "prior experience",
    "a library card", "formal training", "medical insurance",
    "a security clearance", "a signed waiver", "savings",
    "a parking permit", "a reference letter", "teaching credentials",
    "a current passport", "flight hours", "a research budget",
)

ORGANIZATIONS = (
    "The city council", "A regional newspaper", "The national bank",
    "A consumer group", "The health ministry", "A local university",
    "The transit authority", "An industry panel", "The school board",
    "A polling firm",
)

TOPICS = (
    "housing prices", "bus ridership", "water usage", "tuition fees",
    "crop yields", "hospital admissions", "retail sales", "energy costs",
    "library visits", "traffic accidents", "export volumes", "rental vacancies",
)

GROUPS = (
    "economists", "residents", "farmers", "teachers", "commuters", "doctors",
    "shop owners", "students", "engineers", "voters", "critics", "historians",
)

NOUNS = (
    "policy", "bridge", "survey", "museum", "factory", "program", "study",
    "festival", "reservoir", "highway", "campaign", "clinic", "stadium",
)

CITIES = (
    "Springfield", "Riverton", "Lakeside", "Maplewood", "Fairview",
    "Brookhaven", "Cedar Falls", "Oakridge", "Westbury", "Northgate",
)

QUESTIONS = (
    "Which one of the following must be true?",
    "If the statements above are true, which one of the following must also be true?",
    "Which one of the following most logically completes the argument?",
    "The argument relies on which one of the following assumptions?",
    "Which one of the following, if true, most strengthens the argument?",
    "Which one of the following can be properly inferred from the passage?",
)

# {a}/{b}: two distinct names; {p}/{q}: two distinct adjectives.
CORE = (
    "If {a} is {p}, then {b} is {q}.",
    "If {a} is not {p}, then {b} is {q}.",
    "{a} is not {p} if {b} is {q}.",
    "{a} is {p} or {b} is not {q}.",
    "{a} is {p} or {b} is {q}.",
    "{a} is {p} and {b} is {q}.",
    "{a} is {p}, unless {b} is {q}.",
    "{a} is not {p}.",
)

# {x}/{y}: two distinct abilities; {h}: a possession; {a}: a name;
# {p}: an adjective.
EXTENDED = (
    "If you have no {h} at all, you will not be able to {x}.",
    "And if you are not able to {x}, you will not be able to {y}.",
    "If you have at least some {h}, then {a} can {x}.",
    "If {a} cannot {x}, then you will be able to {y}.",
    "You have no {h} or {a} will be able to {x}.",
    "If you can {x}, {a} will not be able to {y}.",
    "{a} cannot {x} if you have some {h}.",
    "You will not be able to {x} unless {a} is {p}.",
)

# {o} organization, {t} topic, {g} group, {n} noun, {c} city, {d} number,
# {yr} year.  Some of these parse with a capitalized first word as the
# subject, into an atomic sentence that no default law rewrites.
FREE = (
    "Most {g} agree that the {n} in {c} was poorly planned in {yr}.",
    "Critics argue that the {n} in {c} failed to reach {g} after {yr}.",
    "{o} reported that {t} rose by {d} percent last year.",
    "According to {o}, {t} fell sharply after {yr}.",
    "However, the {n} in {c} has been closed since {yr}.",
    "Nevertheless, many {g} in {c} remain skeptical of the {n} built in {yr}.",
    "The {n} in {c} was funded by {o}, which later withdrew its support.",
    "In {c}, {t} have doubled over the past {d} years.",
    "This argument assumes that {g} in {c} care more about {t} than about the {n}.",
    "{a}'s proposal for the {n} was rejected by {o} in {yr}.",
    "Some {g} in {c}, however, doubt that {t} will recover before {yr}.",
    "What explains the decline in {t} among {g} in {c} since {yr}?",
    "The {n} in {c} cost roughly {d} million dollars to build.",
    "Unlike {g}, {c} officials expected {t} to stabilize by {yr}.",
)
